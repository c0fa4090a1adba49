#ifndef NDV_INGEST_INCREMENTAL_STATS_H_
#define NDV_INGEST_INCREMENTAL_STATS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "catalog/stats_catalog.h"
#include "common/status.h"
#include "estimators/estimator.h"
#include "sample/samplers.h"
#include "sketch/hyperloglog.h"
#include "sketch/linear_counting.h"
#include "table/column.h"

namespace ndv {

// Online incremental statistics maintenance (DESIGN.md §17).
//
// A full ANALYZE answers "how many distinct values" by re-scanning; under a
// steady append stream that is O(table) work per refresh. IncrementalStats
// instead rides the insert path, paying O(1) per appended row for two
// complementary summaries of everything it has seen:
//
//   1. A streaming Algorithm-L reservoir — a live uniform without-
//      replacement sample of the column, from which the paper's estimators
//      (and the GEE [LOWER, UPPER] bracket) can be materialized at any
//      moment. Batch feeds honor the sampler's skip schedule, so a run of
//      discarded rows costs O(1), not O(run).
//   2. A mergeable sketch backbone — HyperLogLog + linear counting over
//      every hash. Sketch merges are order-independent bit-for-bit, so
//      per-partition deltas combine without re-shipping rows, and reading
//      the running distinct estimate is O(registers), independent of the
//      reservoir: the serving staleness probe uses it instead of
//      re-running an estimator over the sample.
//
// A single IncrementalStats is not thread-safe; partition-parallel builds
// give each shard its own instance (see PartitionedIngest) and fan in with
// MergeIncrementalStats.

// A borrowed view of rows [begin, end) of one column — the unit an append
// batch arrives as. The column must outlive the slice.
struct ColumnSlice {
  const Column* column = nullptr;
  int64_t begin = 0;
  int64_t end = 0;

  int64_t rows() const { return end - begin; }
};

// Convenience: the whole of `column` as a slice.
ColumnSlice FullColumnSlice(const Column& column);

struct IncrementalStatsOptions {
  // Capacity of the streaming reservoir (bounds memory and the sample size
  // every materialized SampleSummary reports).
  int64_t reservoir_capacity = 4096;
  // HyperLogLog precision (2^precision byte registers).
  int hll_precision = 12;
  // Linear-counting bitmap size in bits.
  int64_t linear_counting_bits = int64_t{1} << 16;
  // Seed of the reservoir's RNG (the only randomness in the tracker).
  uint64_t seed = 1;
};

// Combined sketch read: linear counting while its bitmap is sparse enough
// to beat HyperLogLog's ~1.04/sqrt(2^p) error, HyperLogLog beyond. The
// handoff load factor 6 is where LC's standard error crosses HLL's for the
// default sizes (2^16 bits vs precision 12); both sketches see every hash,
// so the handoff needs no rescaling.
double CombinedSketchEstimate(const HyperLogLog& hll,
                              const LinearCounting& lc);

class IncrementalStats {
 public:
  // `partition` tags this tracker's shard for the canonical merge order;
  // single-stream trackers leave it 0.
  explicit IncrementalStats(const IncrementalStatsOptions& options,
                            int partition = 0);

  // Observes one appended row's value hash.
  void Add(uint64_t hash);

  // Observes a batch of appended hashes. Equivalent to Add per hash, but
  // the reservoir consumes discard runs via SkipDiscarded — O(1) per run —
  // and the sketch loop runs without per-row virtual dispatch.
  void AddHashes(std::span<const uint64_t> hashes);

  // Observes appended rows directly from a column, batch-hashing through
  // the column's HashSlice kernel in bounded chunks.
  void AppendBatch(const ColumnSlice& slice);

  // Rows observed so far.
  int64_t rows() const { return reservoir_.items_seen(); }
  int partition() const { return partition_; }
  const IncrementalStatsOptions& options() const { return options_; }

  // O(registers) running distinct estimate from the sketch backbone.
  double SketchEstimate() const {
    return CombinedSketchEstimate(hll_, linear_counting_);
  }

  // The reservoir as estimator-ready sufficient statistics. Requires
  // rows() >= 1. O(reservoir) — the materialization path, not the probe
  // path.
  SampleSummary ReservoirSummary() const;

  // ColumnStats over the current reservoir: `estimator`'s point estimate
  // plus the GEE [LOWER, UPPER] bracket. Does NOT touch the freshness
  // baseline — publishing an interim delta must not reset drift tracking;
  // only a full re-ANALYZE (via MarkFresh) does.
  ColumnStats Snapshot(std::string column_name,
                       const Estimator& estimator) const;

  // Freshness baseline: a full re-ANALYZE of the backing table records the
  // row count and sketch estimate as of that publication. Drift and the
  // Rule-1 staleness fraction are measured against this point.
  void MarkFresh();
  bool fresh() const { return rows_at_fresh_ >= 0; }
  int64_t rows_at_fresh() const { return rows_at_fresh_; }
  double sketch_at_fresh() const { return sketch_at_fresh_; }

  // |SketchEstimate() - sketch_at_fresh()|: how far the running distinct
  // count has moved since the last full re-ANALYZE, in O(registers). A
  // tracker that was never marked fresh reports +infinity (infinitely
  // stale). Because the baseline estimate lies inside the published
  // [LOWER, UPPER] bracket, a drift exceeding the bracket's width proves
  // the running estimate has escaped the interval — the Rule-2 trigger.
  double DriftSinceFresh() const;

  // Rule-1 staleness (PostgreSQL-style autovacuum trigger): rows appended
  // since the baseline exceed `changed_fraction` of the rows at the
  // baseline. Never-fresh is always stale, and after MarkFresh at 0 rows
  // any growth is stale. IsStale clamps a bad knob (NaN, zero, negative)
  // to 0 — any append is stale — while IsStaleOrStatus rejects it with
  // InvalidArgument.
  bool IsStale(double changed_fraction = 0.2) const;
  StatusOr<bool> IsStaleOrStatus(double changed_fraction) const;

  // True when `other` was built with the same sketch/reservoir geometry
  // (seeds and partition tags may differ) — the precondition for merging.
  bool MergeCompatible(const IncrementalStats& other) const;

  // Raw parts, exposed for merging and for bit-identity tests.
  const HyperLogLog& hll() const { return hll_; }
  const LinearCounting& linear_counting() const { return linear_counting_; }
  const ReservoirSamplerL& reservoir() const { return reservoir_; }

 private:
  IncrementalStatsOptions options_;
  int partition_;
  HyperLogLog hll_;
  LinearCounting linear_counting_;
  ReservoirSamplerL reservoir_;
  int64_t rows_at_fresh_ = -1;  // -1 = never marked fresh
  double sketch_at_fresh_ = 0.0;
};

// The fan-in of per-partition deltas: every part's sketches merged (bit-
// identical to a single-stream build) and the reservoirs combined into one
// uniform without-replacement sample of the union via the hypergeometric
// partition merge. Queryable like a tracker but not further appendable.
struct MergedIncrementalStats {
  int64_t rows = 0;
  HyperLogLog hll;
  LinearCounting linear_counting{1};
  // Uniform WOR sample of the union stream, sorted (canonical form so two
  // merges of the same parts compare bit-equal regardless of arrival
  // order).
  std::vector<uint64_t> sample;

  double SketchEstimate() const {
    return CombinedSketchEstimate(hll, linear_counting);
  }
  // Requires rows >= 1.
  SampleSummary Summary() const;
  ColumnStats Snapshot(std::string column_name,
                       const Estimator& estimator) const;
};

// Merges per-partition trackers into one table-level MergedIncrementalStats.
//
// Determinism: parts are first sorted by partition id (which is why the
// ids must be distinct), and the reservoir merge draws from a fresh
// Rng(merge_seed) — so ANY arrival order of the same parts produces a
// bit-identical result, matching the guarantee the sketches give for free.
// Errors: InvalidArgument for no parts, duplicate partition ids, or
// geometry-incompatible parts.
StatusOr<MergedIncrementalStats> MergeIncrementalStats(
    std::span<const IncrementalStats* const> parts, uint64_t merge_seed);

// Partition-parallel ingest of one slice: shard `slice` into `partitions`
// contiguous ranges with PartitionShard (the distributed coordinator's
// sharding function), build one IncrementalStats per shard on up to
// `threads` workers of the shared pool, and return them in partition
// order. Per-partition seeds are derived deterministically from
// options.seed, so the result is bit-identical at every thread count.
std::vector<IncrementalStats> PartitionedIngest(
    const ColumnSlice& slice, const IncrementalStatsOptions& options,
    int partitions, int threads = 0);

}  // namespace ndv

#endif  // NDV_INGEST_INCREMENTAL_STATS_H_
