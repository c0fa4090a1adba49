#include <cmath>

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
