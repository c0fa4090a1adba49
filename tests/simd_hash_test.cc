// The SIMD hash kernels' contract: every vector level is bit-identical to
// the scalar reference for every input — including the doubles the hasher
// canonicalizes (-0.0, every NaN payload, denormals, infinities), every
// vector-width remainder (sizes 0..~70 cover full vectors, tails, and the
// empty span), gathers with arbitrary row orders, and the dictionary-code
// lookup path. Estimates must not depend on the host CPU.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd_hash.h"
#include "common/value_hash.h"

namespace ndv {
namespace {

// Every level this binary can execute on this CPU (always includes
// scalar). The vector levels are only compared when present, so the suite
// passes on any host; CI runs it on AVX2 machines.
std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (SimdLevelAvailable(level)) levels.push_back(level);
  }
  return levels;
}

std::vector<int64_t> TestInt64s(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> values(count);
  for (size_t i = 0; i < count; ++i) {
    switch (i % 7) {
      case 0: values[i] = 0; break;
      case 1: values[i] = -1; break;
      case 2: values[i] = std::numeric_limits<int64_t>::min(); break;
      case 3: values[i] = std::numeric_limits<int64_t>::max(); break;
      default: values[i] = static_cast<int64_t>(rng.NextU64()); break;
    }
  }
  return values;
}

std::vector<double> TestDoubles(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(count);
  for (size_t i = 0; i < count; ++i) {
    switch (i % 9) {
      case 0: values[i] = 0.0; break;
      case 1: values[i] = -0.0; break;
      case 2: values[i] = std::numeric_limits<double>::quiet_NaN(); break;
      case 3: values[i] = -std::numeric_limits<double>::quiet_NaN(); break;
      case 4: {
        // A signaling-NaN bit pattern (payload differs from the quiet
        // canonical one); must land in the same hash class.
        uint64_t bits = 0x7ff0000000000001ULL;
        std::memcpy(&values[i], &bits, sizeof(bits));
        break;
      }
      case 5: values[i] = std::numeric_limits<double>::infinity(); break;
      case 6: values[i] = -std::numeric_limits<double>::infinity(); break;
      case 7: values[i] = 5e-324; break;  // smallest denormal
      default: {
        uint64_t bits = rng.NextU64();
        std::memcpy(&values[i], &bits, sizeof(bits));
        break;
      }
    }
  }
  return values;
}

TEST(SimdHashTest, ParseSimdLevelNames) {
  SimdLevel level = SimdLevel::kAvx2;
  EXPECT_TRUE(ParseSimdLevel("scalar", &level));
  EXPECT_EQ(level, SimdLevel::kScalar);
  EXPECT_TRUE(ParseSimdLevel("avx2", &level));
  EXPECT_EQ(level, SimdLevel::kAvx2);
  EXPECT_TRUE(ParseSimdLevel("neon", &level));
  EXPECT_EQ(level, SimdLevel::kNeon);
  EXPECT_TRUE(ParseSimdLevel("native", &level));
  EXPECT_TRUE(SimdLevelAvailable(level));
  EXPECT_TRUE(ParseSimdLevel("", &level));
  EXPECT_FALSE(ParseSimdLevel("sse9", &level));
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
}

TEST(SimdHashTest, ScalarIsAlwaysAvailableAndActiveIsValid) {
  EXPECT_TRUE(SimdLevelAvailable(SimdLevel::kScalar));
  EXPECT_TRUE(SimdLevelAvailable(ActiveSimdLevel()));
}

TEST(SimdHashTest, ScalarSpanMatchesTheReferenceHash) {
  const std::vector<int64_t> ints = TestInt64s(33, 1);
  std::vector<uint64_t> out(ints.size());
  HashInt64SpanAt(SimdLevel::kScalar, ints.data(), ints.size(), out.data());
  for (size_t i = 0; i < ints.size(); ++i) {
    EXPECT_EQ(out[i], Hash64(static_cast<uint64_t>(ints[i]))) << i;
  }

  const std::vector<double> doubles = TestDoubles(33, 2);
  out.assign(doubles.size(), 0);
  HashDoubleSpanAt(SimdLevel::kScalar, doubles.data(), doubles.size(),
                   out.data());
  for (size_t i = 0; i < doubles.size(); ++i) {
    EXPECT_EQ(out[i], HashDoubleValue(doubles[i])) << i;
  }
  // The two NaN payload classes and the zero signs collapse.
  EXPECT_EQ(out[2], out[3]);
  EXPECT_EQ(out[2], out[4]);
  EXPECT_EQ(out[0], out[1]);
}

TEST(SimdHashTest, EveryLevelMatchesScalarAtEverySize) {
  for (const SimdLevel level : AvailableLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    for (size_t count = 0; count <= 70; ++count) {
      const std::vector<int64_t> ints = TestInt64s(count, count + 1);
      const std::vector<double> doubles = TestDoubles(count, count + 100);
      std::vector<uint64_t> scalar(count), vector(count);

      HashInt64SpanAt(SimdLevel::kScalar, ints.data(), count, scalar.data());
      HashInt64SpanAt(level, ints.data(), count, vector.data());
      EXPECT_EQ(scalar, vector) << "int64 span, count " << count;

      HashDoubleSpanAt(SimdLevel::kScalar, doubles.data(), count,
                       scalar.data());
      HashDoubleSpanAt(level, doubles.data(), count, vector.data());
      EXPECT_EQ(scalar, vector) << "double span, count " << count;
    }
  }
}

TEST(SimdHashTest, GathersMatchScalarUnderArbitraryRowOrders) {
  constexpr size_t kBase = 257;
  const std::vector<int64_t> ints = TestInt64s(kBase, 7);
  const std::vector<double> doubles = TestDoubles(kBase, 8);
  Rng rng(9);
  for (const SimdLevel level : AvailableLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    for (const size_t count : {size_t{0}, size_t{1}, size_t{5}, size_t{64},
                               size_t{67}}) {
      std::vector<int64_t> rows(count);
      for (size_t i = 0; i < count; ++i) {
        rows[i] = static_cast<int64_t>(rng.NextU64() % kBase);
      }
      std::vector<uint64_t> scalar(count), vector(count);
      HashInt64GatherAt(SimdLevel::kScalar, ints.data(), rows.data(), count,
                        scalar.data());
      HashInt64GatherAt(level, ints.data(), rows.data(), count,
                        vector.data());
      EXPECT_EQ(scalar, vector) << "int64 gather, count " << count;

      HashDoubleGatherAt(SimdLevel::kScalar, doubles.data(), rows.data(),
                         count, scalar.data());
      HashDoubleGatherAt(level, doubles.data(), rows.data(), count,
                         vector.data());
      EXPECT_EQ(scalar, vector) << "double gather, count " << count;
    }
  }
}

TEST(SimdHashTest, CodeLookupMatchesScalar) {
  constexpr size_t kDict = 100;
  std::vector<uint64_t> lut(kDict);
  for (size_t i = 0; i < kDict; ++i) {
    lut[i] = HashBytes("entry " + std::to_string(i));
  }
  Rng rng(11);
  for (const SimdLevel level : AvailableLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    for (const size_t count : {size_t{0}, size_t{1}, size_t{31},
                               size_t{64}, size_t{70}}) {
      std::vector<int32_t> codes(count);
      for (size_t i = 0; i < count; ++i) {
        codes[i] = static_cast<int32_t>(rng.NextU64() % kDict);
      }
      std::vector<uint64_t> scalar(count), vector(count);
      HashLookupCodes32At(SimdLevel::kScalar, codes.data(), lut.data(),
                          count, scalar.data());
      HashLookupCodes32At(level, codes.data(), lut.data(), count,
                          vector.data());
      EXPECT_EQ(scalar, vector) << "count " << count;
    }
  }
}

TEST(SimdHashTest, DispatchingKernelsMatchScalar) {
  // Whatever level dispatch resolved to (including an NDV_SIMD override —
  // the ctest matrix reruns this binary with NDV_SIMD=scalar), the public
  // kernels must equal the scalar reference.
  const std::vector<int64_t> ints = TestInt64s(67, 21);
  const std::vector<double> doubles = TestDoubles(67, 22);
  std::vector<uint64_t> expect(67), got(67);

  HashInt64SpanAt(SimdLevel::kScalar, ints.data(), ints.size(),
                  expect.data());
  HashInt64Span(ints.data(), ints.size(), got.data());
  EXPECT_EQ(expect, got);

  HashDoubleSpanAt(SimdLevel::kScalar, doubles.data(), doubles.size(),
                   expect.data());
  HashDoubleSpan(doubles.data(), doubles.size(), got.data());
  EXPECT_EQ(expect, got);
}

// The delta gather at every width and every count up to 40 (so every
// head length 0..K-1, full chunks and the short final chunk), against a
// running prefix sum. The ctest matrix reruns this binary with
// NDV_SIMD=scalar, so both the AVX2 chunk sums and the generic loop meet
// the same reference. The deltas fill an exactly-sized buffer, so a read
// past the last delta shows under ASan.
TEST(SimdHashTest, DeltaGatherMatchesPrefixSums) {
  Rng rng(29);
  for (const int width : {1, 2, 4, 8}) {
    for (size_t count = 0; count <= 40; ++count) {
      SCOPED_TRACE("width " + std::to_string(width) + ", " +
                   std::to_string(count) + " deltas");
      std::vector<uint8_t> deltas(count * static_cast<size_t>(width));
      for (size_t i = 0; i < deltas.size(); ++i) {
        // Every third delta is at an extreme of its width.
        const bool extreme = i / static_cast<size_t>(width) % 3 == 0;
        const bool top = i % static_cast<size_t>(width) ==
                         static_cast<size_t>(width) - 1;
        deltas[i] = extreme ? (top ? (i % 2 == 0 ? 0x80 : 0x7f)
                                   : (i % 2 == 0 ? 0x00 : 0xff))
                            : static_cast<uint8_t>(rng.NextU64());
      }
      const uint64_t base = rng.NextU64();
      std::vector<int64_t> expect(count + 1);
      uint64_t value = base;
      for (size_t i = 0; i <= count; ++i) {
        expect[i] = static_cast<int64_t>(value);
        if (i == count) break;
        int64_t delta = 0;
        std::memcpy(&delta, deltas.data() + i * static_cast<size_t>(width),
                    static_cast<size_t>(width));
        const int shift = 64 - 8 * width;
        delta = shift == 0 ? delta : (delta << shift) >> shift;
        value += static_cast<uint64_t>(delta);
      }
      // Every offset twice, shuffled.
      std::vector<uint32_t> offsets;
      for (uint32_t offset = 0; offset <= count; ++offset) {
        offsets.push_back(offset);
        offsets.push_back(offset);
      }
      rng.Shuffle(offsets);
      std::vector<int64_t> got(offsets.size());
      GatherDeltaValues(width, base, deltas.data(), count, offsets,
                        got.data());
      for (size_t j = 0; j < offsets.size(); ++j) {
        ASSERT_EQ(got[j], expect[offsets[j]]) << "offset " << offsets[j];
      }
    }
  }
}

}  // namespace
}  // namespace ndv
