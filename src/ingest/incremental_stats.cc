#include "ingest/incremental_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "core/gee.h"

namespace ndv {

using flat_hash_internal::CountSlot;
using flat_hash_internal::DoubleCountSlots;
using flat_hash_internal::FindCountSlot;

namespace {

// Rows hashed per HashSlice call in AppendBatch; bounds the scratch buffer
// while keeping the batch kernel's per-call amortization.
constexpr int64_t kAppendChunkRows = 65536;

// The tracker's sketch geometry: 2^12 HyperLogLog registers and a 2^16-bit
// linear-counting bitmap. CombinedSketchEstimate's handoff load is
// calibrated for exactly these sizes.
constexpr int kHllPrecision = 12;
constexpr int64_t kLinearCountingBits = int64_t{1} << 16;

// Linear counting beats HyperLogLog while its load factor D/m stays under
// this; see CombinedSketchEstimate's contract.
constexpr double kLinearCountingHandoffLoad = 6.0;

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

void ReservoirProfile::Insert(uint64_t item) {
  int64_t count;  // occurrences before this one
  if (item == 0) {
    count = zero_count_++;
  } else {
    size_t index = FindCountSlot(slots_, item);
    if (slots_[index].key != item) {
      // A new key: keep the load factor at or below 3/4. The table stops
      // growing once it holds the reservoir's most distinct keys.
      if ((used_ + 1) * 4 > static_cast<int64_t>(slots_.size()) * 3) {
        DoubleCountSlots(slots_);
        index = FindCountSlot(slots_, item);
      }
      slots_[index].key = item;
      ++used_;
    }
    count = slots_[index].count++;
  }
  // The class moves from f(count) to f(count + 1); adding first keeps
  // MaxFrequency from being trimmed and regrown.
  profile_.Add(count + 1, 1);
  if (count > 0) profile_.Add(count, -1);
}

void ReservoirProfile::Erase(uint64_t item) {
  int64_t count;  // occurrences before this erase
  if (item == 0) {
    NDV_CHECK_MSG(zero_count_ > 0, "erasing a hash the reservoir lacks");
    count = zero_count_--;
  } else {
    size_t hole = FindCountSlot(slots_, item);
    NDV_CHECK_MSG(slots_[hole].key == item,
                  "erasing a hash the reservoir lacks");
    count = slots_[hole].count--;
    if (count == 1) {
      --used_;
      // Backward-shift deletion: walk the rest of the probe run and move
      // into the hole every entry whose home slot lies at or before the
      // hole (cyclically), so no lookup meets an empty slot before its
      // key.
      const size_t mask = slots_.size() - 1;
      for (size_t next = (hole + 1) & mask; slots_[next].key != 0;
           next = (next + 1) & mask) {
        const size_t home = static_cast<size_t>(slots_[next].key) & mask;
        if (((next - home) & mask) >= ((next - hole) & mask)) {
          slots_[hole] = slots_[next];
          hole = next;
        }
      }
      slots_[hole] = CountSlot{0, 0};
    }
  }
  if (count > 1) profile_.Add(count - 1, 1);
  profile_.Add(count, -1);
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

IncrementalStats::IncrementalStats(const IncrementalStatsOptions& options)
    : hll_(kHllPrecision),
      linear_counting_(kLinearCountingBits),
      reservoir_(options.reservoir_capacity, Rng(options.seed)) {}

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
  // of O(1) per row. Every Add here is an acceptance, and the profile
  // follows each one.
  int64_t i = 0;
  const auto count = static_cast<int64_t>(hashes.size());
  while (i < count) {
    const int64_t run = reservoir_.DiscardRunLength();
    if (run > 0) {
      const int64_t skip = std::min(run, count - i);
      reservoir_.SkipDiscarded(skip);
      i += skip;
    } else {
      const uint64_t hash = hashes[static_cast<size_t>(i)];
      const ReservoirUpdate update = reservoir_.Add(hash);
      // Erase first: the table never holds more keys than the reservoir.
      if (update.evicted) profile_.Erase(update.evicted_item);
      profile_.Insert(hash);
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
  NDV_CHECK_MSG(rows() >= 1, "no rows observed yet");
  SampleSummary summary;
  summary.table_rows = rows();
  summary.sample_rows = static_cast<int64_t>(reservoir_.sample().size());
  summary.distinct_rows = true;
  summary.freq = profile_.profile();
  summary.Validate();
  return summary;
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

StatusOr<bool> IncrementalStats::IsStaleOrStatus(
    double changed_fraction) const {
  if (!std::isfinite(changed_fraction) || changed_fraction <= 0.0) {
    return InvalidArgumentError(
        "changed_fraction must be a finite positive number, got %g",
        changed_fraction);
  }
  if (rows_at_fresh_ < 0) return true;
  if (rows_at_fresh_ == 0) return rows() > 0;
  const double changed = static_cast<double>(rows() - rows_at_fresh_) /
                         static_cast<double>(rows_at_fresh_);
  return changed > changed_fraction;
}

}  // namespace ndv
