#ifndef NDV_INGEST_INCREMENTAL_STATS_H_
#define NDV_INGEST_INCREMENTAL_STATS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "catalog/stats_catalog.h"
#include "common/flat_hash.h"
#include "common/status.h"
#include "estimators/estimator.h"
#include "profile/frequency_profile.h"
#include "sample/samplers.h"
#include "sketch/hyperloglog.h"
#include "sketch/linear_counting.h"
#include "table/column.h"

namespace ndv {

// Online incremental statistics maintenance (DESIGN.md §17).
//
// A full ANALYZE answers "how many distinct values" by re-scanning; under a
// steady append stream that is O(table) work per refresh. IncrementalStats
// instead rides the insert path of one column, paying O(1) per appended row
// for two complementary summaries of everything it has seen:
//
//   1. A streaming Algorithm-L reservoir — a live uniform without-
//      replacement sample of the column, from which the paper's estimators
//      (and the GEE [LOWER, UPPER] bracket) can be materialized at any
//      moment. Batch feeds honor the sampler's skip schedule, so a run of
//      discarded rows costs O(1), not O(run). The reservoir's frequency
//      profile is kept current beside it: each acceptance moves the
//      evicted hash down one frequency class and the new hash up one.
//   2. A sketch backbone — HyperLogLog + linear counting over every hash.
//      Both keep their estimate's inputs current (registers per rank, zero
//      bits), so reading the running distinct estimate is O(1): the drift
//      probes of both freshness loops (StatsMaintainer and StatsService)
//      use it instead of re-running an estimator over the sample.
//
// An IncrementalStats is not thread-safe; its owners serialize access.

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
  // Seed of the reservoir's RNG (the only randomness in the tracker).
  uint64_t seed = 1;
};

// The frequency profile of a reservoir's multiset of hashes, kept current
// as items enter and leave it. The counts live in one open-addressing array
// of {hash, count} slots at most 3/4 full, which doubles like
// FrequencyProfile::FromValues' table while distinct keys arrive, so it is
// sized by the most distinct keys the multiset has held, never by the
// reservoir's capacity. A class that drops to count 0 leaves by
// backward-shift deletion, so linear probing needs no tombstones. Insert
// and Erase are O(1) amortized.
class ReservoirProfile {
 public:
  // One more occurrence of `item`.
  void Insert(uint64_t item);
  // One occurrence fewer; requires `item` to be present.
  void Erase(uint64_t item);

  // Equal to FrequencyProfile::FromValues over the current multiset.
  const FrequencyProfile& profile() const { return profile_; }

  // Slot-array memory in bytes.
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(slots_.size() *
                                sizeof(flat_hash_internal::CountSlot));
  }

 private:
  std::vector<flat_hash_internal::CountSlot> slots_ =
      std::vector<flat_hash_internal::CountSlot>(
          static_cast<size_t>(flat_hash_internal::kMinCapacity),
          flat_hash_internal::CountSlot{0, 0});
  int64_t used_ = 0;        // non-zero keys stored in slots
  int64_t zero_count_ = 0;  // occurrences of the hash 0
  FrequencyProfile profile_;
};

// Combined sketch read: linear counting while its bitmap is sparse enough
// to beat HyperLogLog's ~1.04/sqrt(2^p) error, HyperLogLog beyond. The
// handoff load factor 6 is where LC's standard error crosses HLL's for the
// tracker's sizes (2^16 bits vs precision 12); both sketches see every
// hash, so the handoff needs no rescaling.
double CombinedSketchEstimate(const HyperLogLog& hll,
                              const LinearCounting& lc);

class IncrementalStats {
 public:
  explicit IncrementalStats(const IncrementalStatsOptions& options);

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

  // O(1) running distinct estimate from the sketch backbone.
  double SketchEstimate() const {
    return CombinedSketchEstimate(hll_, linear_counting_);
  }

  // The reservoir as estimator-ready sufficient statistics: a copy of the
  // kept-current profile, O(max frequency). Requires rows() >= 1.
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
  // count has moved since the last full re-ANALYZE, in O(1). A
  // tracker that was never marked fresh reports +infinity (infinitely
  // stale). Because the baseline estimate lies inside the published
  // [LOWER, UPPER] bracket, a drift exceeding the bracket's width proves
  // the running estimate has escaped the interval; see DriftTriggerFires.
  double DriftSinceFresh() const;

  // Rule-1 staleness (PostgreSQL-style autovacuum trigger): rows appended
  // since the baseline exceed `changed_fraction` of the rows at the
  // baseline. Never-fresh is always stale, and after MarkFresh at 0 rows
  // any growth is stale. A bad knob (NaN, infinite, zero, negative) is
  // rejected with InvalidArgument.
  StatusOr<bool> IsStaleOrStatus(double changed_fraction) const;

  // Raw parts, exposed for bit-identity tests.
  const HyperLogLog& hll() const { return hll_; }
  const LinearCounting& linear_counting() const { return linear_counting_; }
  const ReservoirSamplerL& reservoir() const { return reservoir_; }
  const ReservoirProfile& reservoir_profile() const { return profile_; }

 private:
  HyperLogLog hll_;
  LinearCounting linear_counting_;
  ReservoirSamplerL reservoir_;
  ReservoirProfile profile_;  // of reservoir_.sample()
  int64_t rows_at_fresh_ = -1;  // -1 = never marked fresh
  double sketch_at_fresh_ = 0.0;
};

// The drift-trigger predicate both freshness loops share (StatsMaintainer's
// per-batch check and StatsService's Rule 2): fire iff `drift` (see
// DriftSinceFresh) strictly exceeds the tolerance, the width of the
// interval the last full re-ANALYZE published. drift == width does not
// fire — the running estimate may still sit on the bracket's edge; any
// positive drift against a zero-width (exact-mode) interval does.
inline bool DriftTriggerFires(double drift, double tolerance) {
  return drift > tolerance;
}

}  // namespace ndv

#endif  // NDV_INGEST_INCREMENTAL_STATS_H_
