// Randomized robustness sweep: thousands of randomly generated frequency
// profiles thrown at every estimator, the AE solver, the skew statistics,
// and the GEE bounds. Nothing may crash, return NaN/inf, or violate the
// sanity interval — regardless of how pathological the profile is.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/durable_catalog.h"
#include "common/random.h"
#include "common/simd_hash.h"
#include "core/all_estimators.h"
#include "core/bootstrap_interval.h"
#include "core/gee.h"
#include "profile/skew_statistics.h"

namespace ndv {
namespace {

// Draws a random but valid SampleSummary: random class counts with wildly
// varying shapes (all-singletons, one monster, geometric tails, ...).
SampleSummary RandomSummary(Rng& rng) {
  const int shape = static_cast<int>(rng.NextBounded(5));
  std::vector<int64_t> counts;
  const int64_t classes = 1 + static_cast<int64_t>(rng.NextBounded(200));
  for (int64_t c = 0; c < classes; ++c) {
    int64_t count = 1;
    switch (shape) {
      case 0:  // All singletons.
        count = 1;
        break;
      case 1:  // Uniform small counts.
        count = 1 + static_cast<int64_t>(rng.NextBounded(5));
        break;
      case 2:  // Geometric tail.
        count = 1;
        while (rng.NextDouble() < 0.7 && count < 4096) count *= 2;
        break;
      case 3:  // One monster class among singletons.
        count = (c == 0) ? 1 + static_cast<int64_t>(rng.NextBounded(100000))
                         : 1;
        break;
      default:  // Random heavy counts.
        count = 1 + static_cast<int64_t>(rng.NextBounded(1000));
        break;
    }
    counts.push_back(count);
  }
  SampleSummary summary;
  summary.freq = FrequencyProfile::FromClassCounts(counts);
  summary.sample_rows = summary.freq.TotalCount();
  // Table between the sample size and 10000x it.
  const int64_t factor = 1 + static_cast<int64_t>(rng.NextBounded(10000));
  summary.table_rows = summary.sample_rows * factor;
  summary.distinct_rows = rng.NextBounded(2) == 0;
  summary.Validate();
  return summary;
}

TEST(FuzzRobustnessTest, AllEstimatorsSurviveRandomProfiles) {
  const auto estimators = MakeAllEstimators();
  Rng rng(20260707);
  constexpr int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    const SampleSummary summary = RandomSummary(rng);
    const double d = static_cast<double>(summary.d());
    const double n = static_cast<double>(summary.n());
    for (const auto& estimator : estimators) {
      const double estimate = estimator->Estimate(summary);
      ASSERT_TRUE(std::isfinite(estimate))
          << estimator->name() << " on " << summary.freq.ToString();
      ASSERT_GE(estimate, d) << estimator->name();
      ASSERT_LE(estimate, n) << estimator->name();
    }
  }
}

TEST(FuzzRobustnessTest, GeeBoundsAlwaysOrdered) {
  Rng rng(99887766);
  for (int round = 0; round < 1000; ++round) {
    const SampleSummary summary = RandomSummary(rng);
    const GeeBounds bounds = ComputeGeeBounds(summary);
    ASSERT_LE(bounds.lower, bounds.estimate);
    ASSERT_LE(bounds.estimate, bounds.upper);
    ASSERT_TRUE(std::isfinite(bounds.upper));
  }
}

TEST(FuzzRobustnessTest, SkewStatisticsAlwaysFinite) {
  Rng rng(555);
  for (int round = 0; round < 1000; ++round) {
    const SampleSummary summary = RandomSummary(rng);
    const SkewTestResult skew = TestSkew(summary.freq);
    ASSERT_TRUE(std::isfinite(skew.statistic));
    ASSERT_GE(skew.statistic, -1e-9);
    const double cv =
        EstimatedSquaredCV(summary, 1.0 + static_cast<double>(summary.d()));
    ASSERT_TRUE(std::isfinite(cv));
    ASSERT_GE(cv, 0.0);
  }
}

TEST(FuzzRobustnessTest, DurableRecordDecoderSurvivesGarbage) {
  // Random byte soup through the decoder recovery runs on every WAL and
  // snapshot byte must never crash (an error is fine). Half the rounds
  // frame the soup under a valid length and CRC, so the kind, epoch and
  // body decoders see it too.
  Rng rng(13131313);
  for (int round = 0; round < 2000; ++round) {
    std::string garbage;
    const int len = static_cast<int>(rng.NextBounded(120));
    for (int i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.NextBounded(256));
    }
    if (round % 2 == 1) {
      std::string framed;
      PutU32(&framed, static_cast<uint32_t>(garbage.size()));
      PutU64(&framed, Crc64Nvme(garbage));
      garbage = framed + garbage;
    }
    (void)DecodeSnapshot(garbage);
    (void)DecodeSnapshot("NDVSNAP2" + garbage);
    ByteReader frames(garbage, garbage.size());
    DurableRecord record;
    while (TakeDurableRecord(&frames, &record).ok()) {
      StatsCatalog state;
      (void)ApplyDurableRecord(record, &state);
    }
  }
}

TEST(FuzzRobustnessTest, BootstrapSurvivesRandomProfiles) {
  Rng rng(777);
  const auto estimator = MakeEstimatorByName("GEE");
  for (int round = 0; round < 50; ++round) {
    const SampleSummary summary = RandomSummary(rng);
    BootstrapOptions options;
    options.replicates = 20;
    options.seed = static_cast<uint64_t>(round);
    const BootstrapInterval interval =
        ComputeBootstrapInterval(*estimator, summary, options);
    ASSERT_TRUE(std::isfinite(interval.lower));
    ASSERT_TRUE(std::isfinite(interval.upper));
    ASSERT_LE(interval.lower, interval.upper + 1e-9);
  }
}

}  // namespace
}  // namespace ndv
