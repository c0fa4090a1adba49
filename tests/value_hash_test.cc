// Golden values of the value hash. Every estimate the system publishes and
// every pinned test expectation depends on these bits, and value hashing
// has one implementation, so nothing else would notice a change to the
// mix. The constants agree with an independent model of Hash64 and
// FNV-1a outside this code base. A deliberate change of the hash must
// update them together with every pinned estimate.

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/value_hash.h"
#include "table/column.h"

namespace ndv {
namespace {

double FromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

constexpr uint64_t kHashOfZero = 0x219c75d264b50d20ULL;
constexpr uint64_t kHashOfOne = 0xe5950a800e3d8cf6ULL;
constexpr uint64_t kHashOfNan = 0x3b0c2f0e617a04feULL;

TEST(ValueHashTest, Hash64MatchesItsGoldenValues) {
  EXPECT_EQ(Hash64(0), kHashOfZero);
  EXPECT_EQ(Hash64(1), kHashOfOne);
  // The seed XOR maps this word to the finalizer's fixed point at 0.
  EXPECT_EQ(Hash64(0xa24baed4963ee407ULL), 0u);
  EXPECT_EQ(Hash64(~uint64_t{0}), 0x4f95e30d9052ad49ULL);
  EXPECT_EQ(Hash64(0x0123456789abcdefULL), 0x9d9efd49e4477d00ULL);
}

TEST(ValueHashTest, HashDoubleValueMatchesItsGoldenValues) {
  // Both zeros are one class, hashed as the +0.0 word.
  EXPECT_EQ(HashDoubleValue(0.0), kHashOfZero);
  EXPECT_EQ(HashDoubleValue(-0.0), kHashOfZero);
  // Quiet, negative and signaling NaN are one class, hashed as the
  // canonical quiet NaN word 0x7ff8000000000000.
  EXPECT_EQ(HashDoubleValue(std::numeric_limits<double>::quiet_NaN()),
            kHashOfNan);
  EXPECT_EQ(HashDoubleValue(-std::numeric_limits<double>::quiet_NaN()),
            kHashOfNan);
  EXPECT_EQ(HashDoubleValue(FromBits(0x7ff0000000000001ULL)), kHashOfNan);
  EXPECT_EQ(HashDoubleValue(FromBits(0xfff4000000000000ULL)), kHashOfNan);
  EXPECT_EQ(HashDoubleValue(std::numeric_limits<double>::infinity()),
            0x5bc8465809641dceULL);
  EXPECT_EQ(HashDoubleValue(-std::numeric_limits<double>::infinity()),
            0x39ebf7a083a6b8f4ULL);
  // The smallest denormal is the word 1.
  EXPECT_EQ(HashDoubleValue(5e-324), kHashOfOne);
  EXPECT_EQ(HashDoubleValue(1.0), 0xe98074f395b886b8ULL);
  EXPECT_EQ(HashDoubleValue(-2.5), 0xf83d878f98394504ULL);
}

TEST(ValueHashTest, HashBytesMatchesItsGoldenValues) {
  EXPECT_EQ(HashBytes(""), 0xff5fa0c47152bb2cULL);
  // "naïve café ✓" in UTF-8: two-byte and three-byte sequences.
  EXPECT_EQ(HashBytes("na\xc3\xafve caf\xc3\xa9 \xe2\x9c\x93"),
            0x798b97e2e132a787ULL);
}

// Every slice [begin, end) of a column's batch hash equals the golden
// per-row hashes, at every length 0..9 and offset, and a gather in
// reverse row order equals them reversed.
void ExpectBatchesMatch(const Column& column,
                        const std::vector<uint64_t>& want) {
  const auto n = static_cast<int64_t>(want.size());
  ASSERT_EQ(column.size(), n);
  for (int64_t begin = 0; begin <= n; ++begin) {
    for (int64_t end = begin; end <= n; ++end) {
      std::vector<uint64_t> got(static_cast<size_t>(end - begin));
      column.HashSlice(begin, end, got.data());
      EXPECT_EQ(got, std::vector<uint64_t>(want.begin() + begin,
                                           want.begin() + end))
          << "slice [" << begin << ", " << end << ")";
    }
  }
  std::vector<int64_t> rows;
  for (int64_t row = n - 1; row >= 0; --row) rows.push_back(row);
  std::vector<uint64_t> got(rows.size());
  column.HashRange(rows, got.data());
  EXPECT_EQ(got, std::vector<uint64_t>(want.rbegin(), want.rend()));
}

TEST(ValueHashTest, Int64BatchesMatchTheGoldenValues) {
  const Int64Column column(std::vector<int64_t>{
      0, 1, -1, std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(), 42, int64_t{1} << 32, -123456789,
      0x0123456789abcdefLL});
  ExpectBatchesMatch(column, {kHashOfZero, kHashOfOne, 0x4f95e30d9052ad49ULL,
                              0xb0f90762043b8009ULL, 0x98a99fbd35e61360ULL,
                              0x5c8f10d921dd3891ULL, 0x85a3bb5314eec611ULL,
                              0x5deb10a5297a0fd4ULL, 0x9d9efd49e4477d00ULL});
}

TEST(ValueHashTest, DoubleBatchesMatchTheGoldenValues) {
  const DoubleColumn column(std::vector<double>{
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      FromBits(0x7ff0000000000001ULL),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 5e-324, -2.5});
  ExpectBatchesMatch(column, {kHashOfZero, kHashOfZero, kHashOfNan,
                              kHashOfNan, kHashOfNan, 0x5bc8465809641dceULL,
                              0x39ebf7a083a6b8f4ULL, kHashOfOne,
                              0xf83d878f98394504ULL});
}

TEST(ValueHashTest, StringBatchesMatchTheGoldenValues) {
  const std::string utf8 = "na\xc3\xafve caf\xc3\xa9 \xe2\x9c\x93";
  const StringColumn column(std::vector<std::string>{"", utf8, "", utf8});
  ExpectBatchesMatch(column, {0xff5fa0c47152bb2cULL, 0x798b97e2e132a787ULL,
                              0xff5fa0c47152bb2cULL, 0x798b97e2e132a787ULL});
}

}  // namespace
}  // namespace ndv
