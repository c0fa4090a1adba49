// IncrementalStats: the single-stream append tracker. The load-bearing
// claim — batch feeds are bit-identical to per-row feeds — is asserted on
// the raw state (registers, bitmap words, reservoir contents), not just on
// estimates.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/all_estimators.h"
#include "datagen/zipf.h"
#include "ingest/incremental_stats.h"
#include "table/column.h"

namespace ndv {
namespace {

std::vector<uint64_t> HashStream(uint64_t seed, int64_t count,
                                 uint64_t distinct) {
  Rng rng(seed);
  std::vector<uint64_t> hashes;
  hashes.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    hashes.push_back(Hash64(rng.NextBounded(distinct) + 1));
  }
  return hashes;
}

std::vector<uint64_t> SortedSample(const IncrementalStats& stats) {
  const auto sample = stats.reservoir().sample();
  std::vector<uint64_t> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// Every piece of state equal: sketches bit-for-bit and the reservoir as a
// multiset (same survivors regardless of feed shape).
void ExpectSameState(const IncrementalStats& a, const IncrementalStats& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.hll(), b.hll());
  EXPECT_EQ(a.linear_counting(), b.linear_counting());
  EXPECT_EQ(SortedSample(a), SortedSample(b));
}

TEST(IncrementalStatsTest, BatchFeedMatchesPerRowFeedBitForBit) {
  IncrementalStatsOptions options;
  options.reservoir_capacity = 256;
  options.seed = 99;
  const auto hashes = HashStream(1, 50000, 4000);

  IncrementalStats per_row(options);
  for (uint64_t hash : hashes) per_row.Add(hash);

  IncrementalStats batched(options);
  // Uneven batch sizes, including empty ones, so the skip-run resume logic
  // crosses batch boundaries in every alignment.
  size_t i = 0;
  const size_t batch_sizes[] = {1, 0, 7, 1000, 3, 0, 40000, 100000};
  size_t which = 0;
  while (i < hashes.size()) {
    const size_t take =
        std::min(batch_sizes[which % 8], hashes.size() - i);
    batched.AddHashes(
        std::span<const uint64_t>(hashes.data() + i, take));
    i += take;
    ++which;
  }
  // The reservoirs consumed identical streams through the same RNG: the
  // exact survivor sets match, not just their sizes.
  ExpectSameState(per_row, batched);
  EXPECT_EQ(per_row.reservoir().sample(), batched.reservoir().sample());
}

TEST(IncrementalStatsTest, AppendBatchMatchesAddHashes) {
  std::vector<int64_t> values;
  Rng rng(7);
  for (int i = 0; i < 30000; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(2500)));
  }
  Int64Column column(values);

  IncrementalStatsOptions options;
  options.reservoir_capacity = 512;
  IncrementalStats from_column(options);
  from_column.AppendBatch(FullColumnSlice(column));

  std::vector<uint64_t> hashes(values.size());
  column.HashSlice(0, column.size(), hashes.data());
  IncrementalStats from_hashes(options);
  from_hashes.AddHashes(hashes);

  ExpectSameState(from_column, from_hashes);
  EXPECT_EQ(from_column.reservoir().sample(),
            from_hashes.reservoir().sample());
}

TEST(IncrementalStatsTest, ReservoirSummaryIsExactBelowCapacity) {
  IncrementalStatsOptions options;
  options.reservoir_capacity = 1000;
  IncrementalStats stats(options);
  for (uint64_t v = 0; v < 100; ++v) {
    stats.Add(Hash64(v % 25));  // 25 distinct values, 4 copies each
  }
  const SampleSummary summary = stats.ReservoirSummary();
  EXPECT_EQ(summary.r(), 100);  // reservoir not yet full: full visibility
  EXPECT_EQ(summary.d(), 25);
  EXPECT_EQ(summary.f(4), 25);
}

// A stream that stresses the kept-current profile: the hash 0 (counted out
// of line), a few heavy hitters, keys that all share the first slot or the
// last slot of any table up to 2^20 slots (long probe runs, with
// wrap-around, for backward-shift deletion to repair) and unique values.
std::vector<uint64_t> ProfileStressStream(int64_t count) {
  Rng rng(2024);
  std::vector<uint64_t> hashes;
  hashes.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const uint64_t v = rng.NextBounded(64) + 1;
    const uint64_t unique = (uint64_t{1} << 40) + static_cast<uint64_t>(i);
    const uint64_t choices[] = {0, Hash64(v % 16), v << 20,
                                (v << 20) | 0xFFFFF, Hash64(unique)};
    hashes.push_back(choices[rng.NextBounded(5)]);
  }
  return hashes;
}

TEST(IncrementalStatsTest, KeptProfileEqualsRecountAfterEveryBatch) {
  const auto hashes = ProfileStressStream(200000);
  for (const int64_t capacity : {int64_t{1}, int64_t{64}, int64_t{4096}}) {
    IncrementalStatsOptions options;
    options.reservoir_capacity = capacity;
    options.seed = 5;
    // Read at every batch (from before a 4096-row reservoir fills), from
    // the first batch after the fill, and never until the end: reading
    // must neither depend on nor perturb what came before.
    IncrementalStats early(options);
    IncrementalStats after_fill(options);
    IncrementalStats never(options);
    // Uneven batches, so acceptances land at every offset of a batch.
    const size_t batch_sizes[] = {1000, 1, 2500, 7, 1000, 333};
    size_t begin = 0;
    for (size_t b = 0; begin < hashes.size(); ++b) {
      const size_t take = std::min(batch_sizes[b % 6], hashes.size() - begin);
      const std::span<const uint64_t> batch(hashes.data() + begin, take);
      begin += take;
      early.AddHashes(batch);
      after_fill.AddHashes(batch);
      never.AddHashes(batch);
      const FrequencyProfile recount =
          FrequencyProfile::FromValues(early.reservoir().sample());
      ASSERT_EQ(early.ReservoirSummary().freq, recount)
          << "capacity " << capacity << " after " << begin << " rows";
      if (after_fill.rows() - static_cast<int64_t>(take) >= capacity) {
        ASSERT_EQ(after_fill.ReservoirSummary().freq, recount)
            << "capacity " << capacity << " after " << begin << " rows";
      }
    }
    // Reading never perturbs the reservoir: all three kept the same sample.
    EXPECT_EQ(early.reservoir().sample(), never.reservoir().sample());
    EXPECT_EQ(after_fill.reservoir().sample(), never.reservoir().sample());
    const SampleSummary last = never.ReservoirSummary();
    EXPECT_EQ(last.freq,
              FrequencyProfile::FromValues(never.reservoir().sample()));
    EXPECT_EQ(last.r(), capacity);
    EXPECT_EQ(last.n(), 200000);
  }
}

TEST(IncrementalStatsTest, ProfileTableIsSizedByDistinctKeysNotCapacity) {
  // A reservoir far larger than its stream holds every row; the profile's
  // table grows with the distinct keys it has seen, not to the capacity.
  IncrementalStatsOptions options;
  options.reservoir_capacity = int64_t{1} << 22;
  IncrementalStats stats(options);
  stats.AddHashes(HashStream(9, 100000, 1000));
  const SampleSummary summary = stats.ReservoirSummary();
  EXPECT_EQ(summary.r(), 100000);
  EXPECT_EQ(summary.freq,
            FrequencyProfile::FromValues(stats.reservoir().sample()));
  EXPECT_EQ(stats.reservoir_profile().MemoryBytes(),
            flat_hash_internal::CapacityFor(summary.d()) *
                static_cast<int64_t>(sizeof(flat_hash_internal::CountSlot)));
}

TEST(IncrementalStatsTest, ReservoirCapacityBoundsSample) {
  IncrementalStatsOptions options;
  options.reservoir_capacity = 64;
  IncrementalStats stats(options);
  for (uint64_t v = 0; v < 10000; ++v) stats.Add(Hash64(v));
  const SampleSummary summary = stats.ReservoirSummary();
  EXPECT_EQ(summary.r(), 64);
  EXPECT_EQ(summary.n(), 10000);
}

TEST(IncrementalStatsDeathTest, EmptyTrackerRefusesSummary) {
  IncrementalStats stats(IncrementalStatsOptions{});
  EXPECT_DEATH(stats.ReservoirSummary(), "no rows");
}

TEST(IncrementalStatsTest, SketchEstimateTracksTrueCardinality) {
  IncrementalStatsOptions options;
  IncrementalStats stats(options);
  constexpr uint64_t kDistinct = 10000;
  for (uint64_t v = 1; v <= kDistinct; ++v) stats.Add(Hash64(v));
  // Default geometry keeps linear counting active at this cardinality;
  // its error at load 10000/2^16 is well under 2%.
  EXPECT_NEAR(stats.SketchEstimate(), static_cast<double>(kDistinct),
              0.02 * static_cast<double>(kDistinct));
}

TEST(IncrementalStatsTest, CombinedEstimateHandsOffToHllWhenLcSaturates) {
  // A tiny bitmap saturates immediately; the combined estimate must fall
  // back to HyperLogLog instead of returning m*ln(m) or infinity.
  HyperLogLog hll(12);
  LinearCounting lc(8);
  for (uint64_t v = 1; v <= 50000; ++v) {
    const uint64_t hash = Hash64(v);
    hll.Add(hash);
    lc.Add(hash);
  }
  EXPECT_EQ(lc.zero_bits(), 0);
  EXPECT_EQ(CombinedSketchEstimate(hll, lc), hll.Estimate());
  EXPECT_NEAR(CombinedSketchEstimate(hll, lc), 50000.0, 0.05 * 50000.0);
}

TEST(IncrementalStatsTest, SnapshotEstimateTracksGrowingColumn) {
  // Stream a uniform column (D = 4000) through the tracker; the snapshot
  // estimate lands within a factor of two of the truth and the bracket
  // contains it.
  ZipfColumnOptions options;
  options.rows = 200000;
  options.z = 0.0;
  options.dup_factor = 50;
  const auto column = MakeZipfColumn(options);
  IncrementalStatsOptions tracker;
  tracker.reservoir_capacity = 8000;
  tracker.seed = 7;
  IncrementalStats stats(tracker);
  stats.AppendBatch(FullColumnSlice(*column));

  const auto estimator = MakeEstimatorByName("AE");
  ASSERT_NE(estimator, nullptr);
  const ColumnStats snapshot = stats.Snapshot("col", *estimator);
  EXPECT_EQ(snapshot.table_rows, 200000);
  EXPECT_EQ(snapshot.sample_rows, 8000);
  EXPECT_GT(snapshot.estimate, 4000.0 / 2.0);
  EXPECT_LT(snapshot.estimate, 4000.0 * 2.0);
  EXPECT_LE(snapshot.lower, 4000.0);
  EXPECT_GE(snapshot.upper, 4000.0);
  EXPECT_EQ(snapshot.method, "AE");
}

TEST(IncrementalStatsTest, SnapshotEstimateStaysInsideGeeBracket) {
  IncrementalStatsOptions options;
  options.reservoir_capacity = 1024;
  IncrementalStats stats(options);
  stats.AddHashes(HashStream(4, 60000, 3000));

  const auto estimator = MakeEstimatorByName("GEE");
  ASSERT_NE(estimator, nullptr);
  const ColumnStats snapshot = stats.Snapshot("value", *estimator);
  EXPECT_EQ(snapshot.table_rows, 60000);
  EXPECT_EQ(snapshot.sample_rows, 1024);
  EXPECT_LE(snapshot.lower, snapshot.estimate);
  EXPECT_GE(snapshot.upper, snapshot.estimate);
  EXPECT_EQ(snapshot.method, "GEE");
}

TEST(IncrementalStatsTest, DriftSemantics) {
  IncrementalStats stats(IncrementalStatsOptions{});
  // Never marked fresh: infinitely stale, infinite drift.
  EXPECT_TRUE(std::isinf(stats.DriftSinceFresh()));
  EXPECT_TRUE(*stats.IsStaleOrStatus(0.5));

  stats.AddHashes(HashStream(5, 10000, 2000));
  stats.MarkFresh();
  EXPECT_EQ(stats.DriftSinceFresh(), 0.0);
  EXPECT_EQ(stats.rows_at_fresh(), 10000);
  EXPECT_FALSE(*stats.IsStaleOrStatus(0.2));

  // Appending mostly-new values moves the sketch estimate away from the
  // baseline and trips the volume rule once past the fraction.
  stats.AddHashes(HashStream(6, 5000, 100000));
  EXPECT_GT(stats.DriftSinceFresh(), 0.0);
  EXPECT_TRUE(*stats.IsStaleOrStatus(0.2));   // 50% appended > 20%
  EXPECT_FALSE(*stats.IsStaleOrStatus(0.9));  // but not > 90%

  const auto bad = stats.IsStaleOrStatus(-1.0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalStatsTest, IsStaleOrStatusRejectsBadThreshold) {
  IncrementalStats stats(IncrementalStatsOptions{});
  stats.AddHashes(HashStream(8, 100, 1000));
  stats.MarkFresh();
  for (const double bad : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const auto result = stats.IsStaleOrStatus(bad);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  const auto fresh = stats.IsStaleOrStatus(0.2);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(*fresh);
  stats.AddHashes(HashStream(9, 50, 1000));
  const auto stale = stats.IsStaleOrStatus(0.2);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(*stale);
}

TEST(IncrementalStatsTest, MarkFreshAtZeroRowsMakesAnyGrowthStale) {
  IncrementalStats stats(IncrementalStatsOptions{});
  // Never marked fresh: stale at any threshold.
  EXPECT_TRUE(*stats.IsStaleOrStatus(1000.0));
  // A baseline over an empty column holds only until the first append
  // (no divide-by-zero on the empty baseline).
  stats.MarkFresh();
  EXPECT_EQ(stats.rows_at_fresh(), 0);
  EXPECT_FALSE(*stats.IsStaleOrStatus(0.2));
  stats.Add(Hash64(1));
  EXPECT_TRUE(*stats.IsStaleOrStatus(0.2));
  EXPECT_TRUE(*stats.IsStaleOrStatus(1e9));
}

TEST(IncrementalStatsTest, MarkFreshResetsBaseline) {
  IncrementalStats stats(IncrementalStatsOptions{});
  stats.AddHashes(HashStream(10, 1000, 5000));
  stats.MarkFresh();
  EXPECT_EQ(stats.rows_at_fresh(), 1000);
  // +10% rows: fresh at a 20% threshold, stale at 5%.
  stats.AddHashes(HashStream(11, 100, 5000));
  EXPECT_FALSE(*stats.IsStaleOrStatus(0.2));
  EXPECT_TRUE(*stats.IsStaleOrStatus(0.05));
  // +30% in total: stale at 20% too.
  stats.AddHashes(HashStream(12, 200, 5000));
  EXPECT_TRUE(*stats.IsStaleOrStatus(0.2));
  // A new baseline makes the column fresh again and zeroes the drift.
  stats.MarkFresh();
  EXPECT_EQ(stats.rows_at_fresh(), 1300);
  EXPECT_FALSE(*stats.IsStaleOrStatus(0.2));
  EXPECT_EQ(stats.DriftSinceFresh(), 0.0);
}

}  // namespace
}  // namespace ndv
