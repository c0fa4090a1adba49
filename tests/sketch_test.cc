#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sketch/exact_counter.h"
#include "sketch/flajolet_martin.h"
#include "sketch/hyperloglog.h"
#include "sketch/linear_counting.h"

namespace ndv {
namespace {

// Feeds `distinct` distinct hashed values, each `copies` times.
void FeedDistinct(DistinctCounter& counter, int64_t distinct,
                  int64_t copies = 1) {
  for (int64_t c = 0; c < copies; ++c) {
    for (int64_t i = 0; i < distinct; ++i) {
      counter.Add(Hash64(static_cast<uint64_t>(i) * 2654435761ULL));
    }
  }
}

TEST(ExactCounterTest, CountsExactly) {
  ExactCounter counter;
  FeedDistinct(counter, 1234, 3);
  EXPECT_DOUBLE_EQ(counter.Estimate(), 1234.0);
  EXPECT_GT(counter.MemoryBytes(), 0);
}

TEST(ExactCounterTest, EmptyStream) {
  ExactCounter counter;
  EXPECT_DOUBLE_EQ(counter.Estimate(), 0.0);
}

TEST(LinearCountingTest, AccurateUnderLowLoad) {
  LinearCounting counter(1 << 16);
  FeedDistinct(counter, 10000, 2);
  EXPECT_NEAR(counter.Estimate(), 10000.0, 300.0);
}

TEST(LinearCountingTest, DuplicatesDoNotInflate) {
  LinearCounting a(1 << 12);
  LinearCounting b(1 << 12);
  FeedDistinct(a, 500, 1);
  FeedDistinct(b, 500, 50);
  EXPECT_DOUBLE_EQ(a.Estimate(), b.Estimate());
}

TEST(LinearCountingTest, SaturationReportsAsymptote) {
  LinearCounting counter(64);
  FeedDistinct(counter, 100000);
  EXPECT_EQ(counter.zero_bits(), 0);
  EXPECT_DOUBLE_EQ(counter.Estimate(), 64.0 * std::log(64.0));
}

TEST(LinearCountingTest, ZeroBitsTracksBitmap) {
  LinearCounting counter(128);
  EXPECT_EQ(counter.zero_bits(), 128);
  counter.Add(42);
  EXPECT_EQ(counter.zero_bits(), 127);
  counter.Add(42);  // Same bit.
  EXPECT_EQ(counter.zero_bits(), 127);
}

TEST(LinearCountingTest, ZeroBitsMatchesPopcountThroughSaturation) {
  // A reference bitmap indexed by hash % m, counted by popcount after every
  // add, from empty until long after the last bit flips.
  for (const int64_t bits : {int64_t{1}, int64_t{64}, int64_t{4096}}) {
    LinearCounting counter(bits);
    std::vector<uint64_t> reference(static_cast<size_t>((bits + 63) / 64), 0);
    Rng rng(static_cast<uint64_t>(bits));
    const int64_t adds = bits * 16;
    for (int64_t i = 0; i < adds; ++i) {
      const uint64_t hash = rng.NextU64();
      const uint64_t bit = hash % static_cast<uint64_t>(bits);
      reference[bit / 64] |= uint64_t{1} << (bit % 64);
      counter.Add(hash);
      int64_t ones = 0;
      for (const uint64_t word : reference) ones += std::popcount(word);
      ASSERT_EQ(counter.zero_bits(), bits - ones)
          << bits << " bits, add " << i;
    }
    EXPECT_EQ(counter.zero_bits(), 0) << bits << " bits";
  }
}

TEST(LinearCountingDeathTest, RejectsANonPowerOfTwoBitmap) {
  EXPECT_DEATH(LinearCounting(100), "power-of-two");
  EXPECT_DEATH(LinearCounting(0), "power-of-two");
}

TEST(FlajoletMartinTest, BallparkAccuracy) {
  FlajoletMartin counter(256);
  FeedDistinct(counter, 50000, 2);
  // PCSA standard error ~0.78/sqrt(m) ~ 5%; allow 20%.
  EXPECT_NEAR(counter.Estimate(), 50000.0, 10000.0);
}

TEST(FlajoletMartinTest, InsensitiveToDuplication) {
  FlajoletMartin a(64);
  FlajoletMartin b(64);
  FeedDistinct(a, 2000, 1);
  FeedDistinct(b, 2000, 25);
  EXPECT_DOUBLE_EQ(a.Estimate(), b.Estimate());
}

TEST(HyperLogLogTest, WithinTheoreticalError) {
  HyperLogLog counter(12);
  FeedDistinct(counter, 100000, 2);
  const double tolerance = 4.0 * counter.StandardError() * 100000.0;
  EXPECT_NEAR(counter.Estimate(), 100000.0, tolerance);
}

TEST(HyperLogLogTest, SmallRangeCorrectionKicksIn) {
  HyperLogLog counter(12);
  FeedDistinct(counter, 100);
  EXPECT_NEAR(counter.Estimate(), 100.0, 10.0);
}

// HyperLogLog::Estimate as a register-order pass: sum 2^-register over the
// registers in index order, then the small-range correction.
double RegisterOrderEstimate(const std::vector<uint8_t>& registers) {
  const double m = static_cast<double>(registers.size());
  double alpha = 0.7213 / (1.0 + 1.079 / m);
  if (registers.size() == 16) alpha = 0.673;
  if (registers.size() == 32) alpha = 0.697;
  if (registers.size() == 64) alpha = 0.709;
  double harmonic = 0.0;
  int64_t zeros = 0;
  for (const uint8_t reg : registers) {
    harmonic += std::exp2(-static_cast<double>(reg));
    if (reg == 0) ++zeros;
  }
  const double raw = alpha * m * m / harmonic;
  if (raw <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

TEST(HyperLogLogTest, RankCountEstimateEqualsRegisterOrderSum) {
  // The per-rank sum equals the register-order sum while every register is
  // <= 53 - precision; the stream stays inside that domain (asserted).
  constexpr int64_t kHashes = int64_t{1} << 22;
  for (const int precision : {4, 12, 18}) {
    HyperLogLog counter(precision);
    std::vector<uint8_t> registers(size_t{1} << precision, 0);
    EXPECT_EQ(counter.Estimate(), RegisterOrderEstimate(registers));
    int64_t checkpoint = 1;
    for (int64_t i = 1; i <= kHashes; ++i) {
      const uint64_t hash = Hash64(static_cast<uint64_t>(i));
      counter.Add(hash);
      const uint64_t rest = hash << precision;
      const int rank =
          rest == 0 ? 64 - precision + 1 : std::countl_zero(rest) + 1;
      uint8_t& reg = registers[hash >> (64 - precision)];
      reg = std::max(reg, static_cast<uint8_t>(rank));
      if (i == checkpoint || i == kHashes) {
        ASSERT_LE(*std::max_element(registers.begin(), registers.end()),
                  53 - precision);
        ASSERT_EQ(counter.Estimate(), RegisterOrderEstimate(registers))
            << "precision " << precision << ", " << i << " hashes";
        checkpoint = checkpoint * 5 / 4 + 1;
      }
    }
  }
}

TEST(HyperLogLogTest, MemoryIsOneBytePerRegister) {
  EXPECT_EQ(HyperLogLog(12).MemoryBytes(), 4096);
  EXPECT_EQ(HyperLogLog(4).MemoryBytes(), 16);
}

TEST(KmvTest, ExactBelowK) {
  KMinimumValues counter(256);
  FeedDistinct(counter, 100, 5);
  EXPECT_DOUBLE_EQ(counter.Estimate(), 100.0);
}

TEST(KmvTest, AccurateAboveK) {
  KMinimumValues counter(1024);
  FeedDistinct(counter, 100000, 2);
  // Relative error ~1/sqrt(k-2) ~ 3%; allow 15%.
  EXPECT_NEAR(counter.Estimate(), 100000.0, 15000.0);
}

TEST(KmvTest, DuplicatesIgnored) {
  KMinimumValues a(64);
  KMinimumValues b(64);
  FeedDistinct(a, 1000, 1);
  FeedDistinct(b, 1000, 10);
  EXPECT_DOUBLE_EQ(a.Estimate(), b.Estimate());
}

TEST(MakeAllDistinctCountersTest, EmptyCountersReadPositiveZero) {
  for (const auto& counter : MakeAllDistinctCounters()) {
    const double estimate = counter->Estimate();
    EXPECT_TRUE(estimate == 0.0 && !std::signbit(estimate))
        << counter->name() << " reads " << estimate;
  }
}

TEST(MakeAllDistinctCountersTest, AllProduceEstimates) {
  auto counters = MakeAllDistinctCounters();
  EXPECT_EQ(counters.size(), 5u);
  for (auto& counter : counters) {
    FeedDistinct(*counter, 5000);
    EXPECT_GT(counter->Estimate(), 2000.0) << counter->name();
    EXPECT_LT(counter->Estimate(), 10000.0) << counter->name();
    EXPECT_GT(counter->MemoryBytes(), 0) << counter->name();
  }
}

}  // namespace
}  // namespace ndv
