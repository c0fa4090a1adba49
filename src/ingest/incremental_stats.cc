#include "ingest/incremental_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/gee.h"
#include "distributed/distributed_analyze.h"
#include "sample/partition_merge.h"

namespace ndv {
namespace {

// Rows hashed per HashSlice call in AppendBatch; bounds the scratch buffer
// while keeping the batch kernel's per-call amortization.
constexpr int64_t kAppendChunkRows = 65536;

// Linear counting beats HyperLogLog while its load factor D/m stays under
// this; see CombinedSketchEstimate's contract.
constexpr double kLinearCountingHandoffLoad = 6.0;

void ValidateOptions(const IncrementalStatsOptions& options) {
  NDV_CHECK_MSG(options.reservoir_capacity >= 1,
                "reservoir_capacity must be >= 1, got %lld",
                static_cast<long long>(options.reservoir_capacity));
  NDV_CHECK_MSG(4 <= options.hll_precision && options.hll_precision <= 18,
                "hll_precision must be in [4, 18], got %d",
                options.hll_precision);
  NDV_CHECK_MSG(options.linear_counting_bits >= 1,
                "linear_counting_bits must be >= 1, got %lld",
                static_cast<long long>(options.linear_counting_bits));
}

SampleSummary SummaryFromSample(int64_t rows,
                                std::span<const uint64_t> sample) {
  NDV_CHECK_MSG(rows >= 1, "no rows observed yet");
  SampleSummary summary;
  summary.table_rows = rows;
  summary.sample_rows = static_cast<int64_t>(sample.size());
  summary.distinct_rows = true;
  // A reservoir of row hashes is nearly all-distinct, so pre-size the
  // counting table for it: the snapshot path runs on every published
  // append batch, and rehash churn was its dominant cost.
  summary.freq = FrequencyProfile::FromValues(
      sample, static_cast<int64_t>(sample.size()));
  summary.Validate();
  return summary;
}

ColumnStats StatsFromSummary(std::string column_name,
                             const SampleSummary& summary,
                             const Estimator& estimator) {
  const GeeBounds bounds = ComputeGeeBounds(summary);
  ColumnStats stats;
  stats.column_name = std::move(column_name);
  stats.table_rows = summary.n();
  stats.sample_rows = summary.r();
  stats.sample_distinct = summary.d();
  stats.estimate = estimator.Estimate(summary);
  stats.lower = bounds.lower;
  stats.upper = bounds.upper;
  stats.method = std::string(estimator.name());
  return stats;
}

}  // namespace

ColumnSlice FullColumnSlice(const Column& column) {
  return ColumnSlice{&column, 0, column.size()};
}

double CombinedSketchEstimate(const HyperLogLog& hll,
                              const LinearCounting& lc) {
  if (lc.zero_bits() > 0) {
    const double estimate = lc.Estimate();
    if (estimate <= kLinearCountingHandoffLoad *
                        static_cast<double>(lc.bits())) {
      return estimate;
    }
  }
  return hll.Estimate();
}

IncrementalStats::IncrementalStats(const IncrementalStatsOptions& options,
                                   int partition)
    : options_(options),
      partition_(partition),
      hll_(options.hll_precision),
      linear_counting_(options.linear_counting_bits),
      reservoir_(options.reservoir_capacity, Rng(options.seed)) {
  ValidateOptions(options);
}

void IncrementalStats::Add(uint64_t hash) {
  AddHashes(std::span<const uint64_t>(&hash, 1));
}

void IncrementalStats::AddHashes(std::span<const uint64_t> hashes) {
  // Sketch backbone: every hash, O(1) each.
  for (const uint64_t hash : hashes) {
    hll_.Add(hash);
    linear_counting_.Add(hash);
  }
  // Reservoir: honor Algorithm L's skip schedule. A run of discards is one
  // SkipDiscarded call, so a filled reservoir costs O(1) per run instead
  // of O(1) per row.
  int64_t i = 0;
  const auto count = static_cast<int64_t>(hashes.size());
  while (i < count) {
    const int64_t run = reservoir_.DiscardRunLength();
    if (run > 0) {
      const int64_t skip = std::min(run, count - i);
      reservoir_.SkipDiscarded(skip);
      i += skip;
    } else {
      reservoir_.Add(hashes[static_cast<size_t>(i)]);
      ++i;
    }
  }
}

void IncrementalStats::AppendBatch(const ColumnSlice& slice) {
  NDV_CHECK_MSG(slice.column != nullptr, "ColumnSlice has no column");
  NDV_CHECK_MSG(
      0 <= slice.begin && slice.begin <= slice.end &&
          slice.end <= slice.column->size(),
      "ColumnSlice [%lld, %lld) out of bounds for a %lld-row column",
      static_cast<long long>(slice.begin),
      static_cast<long long>(slice.end),
      static_cast<long long>(slice.column->size()));
  std::vector<uint64_t> hashes;
  for (int64_t begin = slice.begin; begin < slice.end;
       begin += kAppendChunkRows) {
    const int64_t end = std::min(begin + kAppendChunkRows, slice.end);
    hashes.resize(static_cast<size_t>(end - begin));
    slice.column->HashSlice(begin, end, hashes.data());
    AddHashes(hashes);
  }
}

SampleSummary IncrementalStats::ReservoirSummary() const {
  return SummaryFromSample(rows(), reservoir_.sample());
}

ColumnStats IncrementalStats::Snapshot(std::string column_name,
                                       const Estimator& estimator) const {
  return StatsFromSummary(std::move(column_name), ReservoirSummary(),
                          estimator);
}

void IncrementalStats::MarkFresh() {
  rows_at_fresh_ = rows();
  sketch_at_fresh_ = SketchEstimate();
}

double IncrementalStats::DriftSinceFresh() const {
  if (!fresh()) return std::numeric_limits<double>::infinity();
  return std::abs(SketchEstimate() - sketch_at_fresh_);
}

bool IncrementalStats::IsStale(double changed_fraction) const {
  // A bad knob (NaN, zero, negative) is clamped to 0 — "any append since
  // the baseline is stale" — instead of aborting: a long-running server
  // must not crash on a client-supplied threshold.
  if (!(changed_fraction > 0.0)) changed_fraction = 0.0;
  if (rows_at_fresh_ < 0) return true;
  if (rows_at_fresh_ == 0) return rows() > 0;
  const double changed = static_cast<double>(rows() - rows_at_fresh_) /
                         static_cast<double>(rows_at_fresh_);
  return changed > changed_fraction;
}

StatusOr<bool> IncrementalStats::IsStaleOrStatus(
    double changed_fraction) const {
  if (!std::isfinite(changed_fraction) || changed_fraction <= 0.0) {
    return InvalidArgumentError(
        "changed_fraction must be a finite positive number, got %g",
        changed_fraction);
  }
  return IsStale(changed_fraction);
}

bool IncrementalStats::MergeCompatible(const IncrementalStats& other) const {
  return options_.reservoir_capacity == other.options_.reservoir_capacity &&
         options_.hll_precision == other.options_.hll_precision &&
         options_.linear_counting_bits ==
             other.options_.linear_counting_bits;
}

SampleSummary MergedIncrementalStats::Summary() const {
  return SummaryFromSample(rows, sample);
}

ColumnStats MergedIncrementalStats::Snapshot(
    std::string column_name, const Estimator& estimator) const {
  return StatsFromSummary(std::move(column_name), Summary(), estimator);
}

StatusOr<MergedIncrementalStats> MergeIncrementalStats(
    std::span<const IncrementalStats* const> parts, uint64_t merge_seed) {
  if (parts.empty()) {
    return InvalidArgumentError("MergeIncrementalStats: no parts");
  }
  // Canonical order: by partition id. Distinct ids make the order total,
  // so any arrival order of the same parts merges bit-identically.
  std::vector<const IncrementalStats*> ordered(parts.begin(), parts.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const IncrementalStats* a, const IncrementalStats* b) {
              return a->partition() < b->partition();
            });
  for (size_t i = 0; i + 1 < ordered.size(); ++i) {
    if (ordered[i]->partition() == ordered[i + 1]->partition()) {
      return InvalidArgumentError(
          "MergeIncrementalStats: duplicate partition id %d",
          ordered[i]->partition());
    }
  }
  const IncrementalStats& first = *ordered.front();
  MergedIncrementalStats merged;
  merged.hll = first.hll();
  merged.linear_counting = first.linear_counting();
  merged.rows = first.rows();
  std::vector<PartitionSample> reservoirs;
  reservoirs.reserve(ordered.size());
  reservoirs.push_back(
      PartitionSample{first.rows(), first.reservoir().sample()});
  for (size_t i = 1; i < ordered.size(); ++i) {
    const IncrementalStats& part = *ordered[i];
    if (!first.MergeCompatible(part)) {
      return InvalidArgumentError(
          "MergeIncrementalStats: partition %d has incompatible geometry",
          part.partition());
    }
    merged.hll.Merge(part.hll());
    merged.linear_counting.Merge(part.linear_counting());
    merged.rows += part.rows();
    reservoirs.push_back(
        PartitionSample{part.rows(), part.reservoir().sample()});
  }
  // Every partition reservoir holds min(capacity, population) items, which
  // is >= min(target, population) because the capacities are equal — so the
  // hypergeometric merge's preconditions hold by construction.
  const int64_t target =
      std::min(first.options().reservoir_capacity, merged.rows);
  Rng merge_rng(merge_seed);
  auto sample = MergePartitionSamplesOrStatus(std::move(reservoirs), target,
                                              merge_rng);
  NDV_RETURN_IF_ERROR(sample.status());
  merged.sample = *std::move(sample);
  std::sort(merged.sample.begin(), merged.sample.end());
  return merged;
}

std::vector<IncrementalStats> PartitionedIngest(
    const ColumnSlice& slice, const IncrementalStatsOptions& options,
    int partitions, int threads) {
  NDV_CHECK_MSG(partitions >= 1, "partitions must be >= 1, got %d",
                partitions);
  std::vector<IncrementalStats> shards;
  shards.reserve(static_cast<size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    IncrementalStatsOptions shard_options = options;
    // Seeds derive from (seed, partition), never from the executing
    // thread, so the build is bit-identical at every thread count.
    shard_options.seed =
        Hash64(options.seed + static_cast<uint64_t>(p) + 1);
    shards.emplace_back(shard_options, p);
  }
  ParallelFor(partitions, ResolveThreadCount(threads), [&](int64_t pi) {
    const int p = static_cast<int>(pi);
    const auto [begin, end] = PartitionShard(slice.rows(), partitions, p);
    const ColumnSlice shard{slice.column, slice.begin + begin,
                            slice.begin + end};
    shards[static_cast<size_t>(p)].AppendBatch(shard);
  });
  return shards;
}

}  // namespace ndv
