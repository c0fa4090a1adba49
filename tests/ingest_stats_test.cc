// IncrementalStats: the online ingest tentpole. The load-bearing claims —
// batch feeds are bit-identical to per-row feeds, partition-parallel
// builds are bit-identical at every thread count, and partition merges are
// bit-identical in every arrival order — are asserted on the raw state
// (registers, bitmap words, reservoir contents), not just on estimates.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
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
  EXPECT_TRUE(stats.IsStale(0.5));

  stats.AddHashes(HashStream(5, 10000, 2000));
  stats.MarkFresh();
  EXPECT_EQ(stats.DriftSinceFresh(), 0.0);
  EXPECT_EQ(stats.rows_at_fresh(), 10000);
  EXPECT_FALSE(stats.IsStale(0.2));

  // Appending mostly-new values moves the sketch estimate away from the
  // baseline and trips the volume rule once past the fraction.
  stats.AddHashes(HashStream(6, 5000, 100000));
  EXPECT_GT(stats.DriftSinceFresh(), 0.0);
  EXPECT_TRUE(stats.IsStale(0.2));   // 50% appended > 20%
  EXPECT_FALSE(stats.IsStale(0.9));  // but not > 90%

  const auto bad = stats.IsStaleOrStatus(-1.0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// A bad threshold must not crash a long-running server: IsStale clamps
// NaN, zero and negative values to 0 ("any append is stale").
TEST(IncrementalStatsTest, IsStaleClampsBadThresholdInsteadOfAborting) {
  IncrementalStats stats(IncrementalStatsOptions{});
  stats.AddHashes(HashStream(7, 100, 1000));
  stats.MarkFresh();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // No appends since the baseline: still fresh under the clamp.
  for (const double bad : {0.0, -1.0, kNaN}) {
    EXPECT_FALSE(stats.IsStale(bad)) << bad;
  }
  // One append past the baseline flips every clamped threshold to stale,
  // while a sane threshold still tolerates the 1% growth.
  stats.Add(Hash64(12345));
  for (const double bad : {0.0, -1.0, kNaN}) {
    EXPECT_TRUE(stats.IsStale(bad)) << bad;
  }
  EXPECT_FALSE(stats.IsStale(0.2));
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
  EXPECT_TRUE(stats.IsStale(1000.0));
  // A baseline over an empty column holds only until the first append
  // (no divide-by-zero on the empty baseline).
  stats.MarkFresh();
  EXPECT_EQ(stats.rows_at_fresh(), 0);
  EXPECT_FALSE(stats.IsStale(0.2));
  stats.Add(Hash64(1));
  EXPECT_TRUE(stats.IsStale(0.2));
  EXPECT_TRUE(stats.IsStale(1e9));
}

TEST(IncrementalStatsTest, MarkFreshResetsBaseline) {
  IncrementalStats stats(IncrementalStatsOptions{});
  stats.AddHashes(HashStream(10, 1000, 5000));
  stats.MarkFresh();
  EXPECT_EQ(stats.rows_at_fresh(), 1000);
  // +10% rows: fresh at a 20% threshold, stale at 5%.
  stats.AddHashes(HashStream(11, 100, 5000));
  EXPECT_FALSE(stats.IsStale(0.2));
  EXPECT_TRUE(stats.IsStale(0.05));
  // +30% in total: stale at 20% too.
  stats.AddHashes(HashStream(12, 200, 5000));
  EXPECT_TRUE(stats.IsStale(0.2));
  // A new baseline makes the column fresh again and zeroes the drift.
  stats.MarkFresh();
  EXPECT_EQ(stats.rows_at_fresh(), 1300);
  EXPECT_FALSE(stats.IsStale(0.2));
  EXPECT_EQ(stats.DriftSinceFresh(), 0.0);
}

TEST(PartitionedIngestTest, BitIdenticalAcrossThreadCounts) {
  std::vector<int64_t> values;
  Rng rng(11);
  for (int i = 0; i < 120000; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(9000)));
  }
  Int64Column column(values);
  IncrementalStatsOptions options;
  options.reservoir_capacity = 300;
  options.seed = 17;
  constexpr int kPartitions = 7;

  const auto serial =
      PartitionedIngest(FullColumnSlice(column), options, kPartitions,
                        /*threads=*/1);
  const auto parallel =
      PartitionedIngest(FullColumnSlice(column), options, kPartitions,
                        /*threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (int p = 0; p < kPartitions; ++p) {
    SCOPED_TRACE(p);
    EXPECT_EQ(serial[static_cast<size_t>(p)].partition(), p);
    ExpectSameState(serial[static_cast<size_t>(p)],
                    parallel[static_cast<size_t>(p)]);
    EXPECT_EQ(serial[static_cast<size_t>(p)].reservoir().sample(),
              parallel[static_cast<size_t>(p)].reservoir().sample());
  }

  // And the two merged results are bit-identical end to end.
  std::vector<const IncrementalStats*> serial_parts;
  std::vector<const IncrementalStats*> parallel_parts;
  for (int p = 0; p < kPartitions; ++p) {
    serial_parts.push_back(&serial[static_cast<size_t>(p)]);
    parallel_parts.push_back(&parallel[static_cast<size_t>(p)]);
  }
  const auto merged_serial = MergeIncrementalStats(serial_parts, 5);
  const auto merged_parallel = MergeIncrementalStats(parallel_parts, 5);
  ASSERT_TRUE(merged_serial.ok());
  ASSERT_TRUE(merged_parallel.ok());
  EXPECT_EQ(merged_serial->sample, merged_parallel->sample);
  EXPECT_EQ(merged_serial->hll, merged_parallel->hll);
  EXPECT_EQ(merged_serial->linear_counting,
            merged_parallel->linear_counting);
}

TEST(MergeIncrementalStatsTest, AnyArrivalOrderMergesBitIdentically) {
  IncrementalStatsOptions options;
  options.reservoir_capacity = 200;
  std::vector<IncrementalStats> parts;
  for (int p = 0; p < 5; ++p) {
    IncrementalStatsOptions shard = options;
    shard.seed = static_cast<uint64_t>(p) + 31;
    parts.emplace_back(shard, p);
    parts.back().AddHashes(HashStream(static_cast<uint64_t>(p) + 50,
                                      8000 + 1000 * p, 3000));
  }

  const std::vector<std::vector<int>> orders = {
      {0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}};
  std::vector<MergedIncrementalStats> merged;
  for (const auto& order : orders) {
    std::vector<const IncrementalStats*> views;
    for (const int p : order) {
      views.push_back(&parts[static_cast<size_t>(p)]);
    }
    auto result = MergeIncrementalStats(views, /*merge_seed=*/77);
    ASSERT_TRUE(result.ok());
    merged.push_back(*std::move(result));
  }
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].rows, merged[0].rows);
    EXPECT_EQ(merged[i].hll, merged[0].hll);
    EXPECT_EQ(merged[i].linear_counting, merged[0].linear_counting);
    EXPECT_EQ(merged[i].sample, merged[0].sample);
  }
}

TEST(MergeIncrementalStatsTest, MergedSketchesEqualSingleStreamBuild) {
  IncrementalStatsOptions options;
  std::vector<IncrementalStats> parts;
  IncrementalStats single(options);
  for (int p = 0; p < 4; ++p) {
    IncrementalStatsOptions shard = options;
    shard.seed = static_cast<uint64_t>(p) + 7;
    parts.emplace_back(shard, p);
    const auto hashes =
        HashStream(static_cast<uint64_t>(p) + 90, 12000, 5000);
    parts[static_cast<size_t>(p)].AddHashes(hashes);
    single.AddHashes(hashes);
  }
  std::vector<const IncrementalStats*> views;
  for (const auto& part : parts) views.push_back(&part);
  const auto merged = MergeIncrementalStats(views, 3);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->rows, single.rows());
  // Sketches are order-independent: the merge is bit-identical to one
  // tracker that saw the concatenated stream.
  EXPECT_EQ(merged->hll, single.hll());
  EXPECT_EQ(merged->linear_counting, single.linear_counting());
  // The merged reservoir is a fresh uniform draw, not the single-stream
  // one — but it has the same size and its summary brackets GEE.
  EXPECT_EQ(static_cast<int64_t>(merged->sample.size()),
            options.reservoir_capacity);
  const auto estimator = MakeEstimatorByName("GEE");
  const ColumnStats snapshot = merged->Snapshot("value", *estimator);
  EXPECT_LE(snapshot.lower, snapshot.estimate);
  EXPECT_GE(snapshot.upper, snapshot.estimate);
}

TEST(MergeIncrementalStatsTest, SmallPartitionsMergeToFullPopulation) {
  // Fewer total rows than capacity: the merged sample IS the union.
  IncrementalStatsOptions options;
  options.reservoir_capacity = 1000;
  IncrementalStats a(options, 0);
  IncrementalStats b(options, 1);
  a.AddHashes(HashStream(1, 30, 1000000));
  b.AddHashes(HashStream(2, 40, 1000000));
  const IncrementalStats* views[] = {&a, &b};
  const auto merged = MergeIncrementalStats(views, 9);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->rows, 70);
  EXPECT_EQ(static_cast<int64_t>(merged->sample.size()), 70);
}

TEST(MergeIncrementalStatsTest, ErrorPaths) {
  const auto empty =
      MergeIncrementalStats(std::span<const IncrementalStats* const>{}, 1);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  IncrementalStatsOptions options;
  IncrementalStats a(options, 3);
  IncrementalStats b(options, 3);  // duplicate partition id
  a.Add(1);
  b.Add(2);
  const IncrementalStats* duplicate[] = {&a, &b};
  const auto dup = MergeIncrementalStats(duplicate, 1);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);

  IncrementalStatsOptions other = options;
  other.hll_precision = 14;  // incompatible sketch geometry
  IncrementalStats c(other, 4);
  c.Add(3);
  const IncrementalStats* incompatible[] = {&a, &c};
  const auto bad = MergeIncrementalStats(incompatible, 1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ndv
