// SIMD dispatch: level parsing and the delta gather against a running
// prefix sum at every width. The CRC-64/NVME levels are pinned to the
// table in pack_codec_test; value hashing has one loop per value type,
// pinned in value_hash_test and batch_hash_test.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd_hash.h"

namespace ndv {
namespace {

TEST(SimdHashTest, ParseSimdLevelNames) {
  SimdLevel level = SimdLevel::kAvx2;
  EXPECT_TRUE(ParseSimdLevel("scalar", &level));
  EXPECT_EQ(level, SimdLevel::kScalar);
  EXPECT_TRUE(ParseSimdLevel("avx2", &level));
  EXPECT_EQ(level, SimdLevel::kAvx2);
  EXPECT_FALSE(ParseSimdLevel("neon", &level));
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
