#include "ingest/maintenance.h"

#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/all_estimators.h"

namespace ndv {

StatsMaintainer::StatsMaintainer(ConcurrentStatsCatalog* catalog,
                                 ReanalyzeFn reanalyze,
                                 StatsMaintainerOptions options)
    : catalog_(catalog),
      reanalyze_(std::move(reanalyze)),
      options_(std::move(options)),
      estimator_(MakeEstimatorByName(options_.estimator)) {
  NDV_CHECK_MSG(catalog_ != nullptr, "StatsMaintainer requires a catalog");
  NDV_CHECK_MSG(reanalyze_ != nullptr,
                "StatsMaintainer requires a re-ANALYZE callback");
  NDV_CHECK_MSG(estimator_ != nullptr, "unknown estimator '%s'",
                options_.estimator.c_str());
}

StatsMaintainer::~StatsMaintainer() { WaitForReanalyze(); }

void StatsMaintainer::Track(const std::string& column,
                            const ColumnSlice& existing) {
  auto stats = std::make_unique<IncrementalStats>(options_.tracker);
  if (existing.rows() > 0) stats->AppendBatch(existing);

  MutexLock lock(mutex_);
  ColumnState& state = columns_[column];
  NDV_CHECK_MSG(state.stats == nullptr, "column '%s' is already tracked",
                column.c_str());
  state.stats = std::move(stats);
  // A published entry (from the initial ANALYZE or a recovered catalog) is
  // the drift baseline; without one, the first publication establishes it.
  const auto published = catalog_->Find(column);
  if (published.has_value()) {
    state.tolerance = published->upper - published->lower;
    state.baseline_valid = true;
    state.stats->MarkFresh();
  }
}

std::vector<uint64_t> StatsMaintainer::HashBatch(const ColumnSlice& batch) {
  NDV_CHECK_MSG(batch.column != nullptr, "ColumnSlice has no column");
  NDV_CHECK_MSG(
      0 <= batch.begin && batch.begin <= batch.end &&
          batch.end <= batch.column->size(),
      "ColumnSlice [%lld, %lld) out of bounds for a %lld-row column",
      static_cast<long long>(batch.begin),
      static_cast<long long>(batch.end),
      static_cast<long long>(batch.column->size()));
  std::vector<uint64_t> hashes(static_cast<size_t>(batch.rows()));
  if (!hashes.empty()) {
    batch.column->HashSlice(batch.begin, batch.end, hashes.data());
  }
  return hashes;
}

uint64_t StatsMaintainer::Append(const std::string& column,
                                 const ColumnSlice& batch) {
  return AppendHashes(column, HashBatch(batch));
}

uint64_t StatsMaintainer::AppendHashes(const std::string& column,
                                       std::span<const uint64_t> hashes) {
  uint64_t epoch = 0;
  bool fire_inline = false;
  {
    MutexLock lock(mutex_);
    const auto it = columns_.find(column);
    NDV_CHECK_MSG(it != columns_.end(), "column '%s' is not tracked",
                  column.c_str());
    ColumnState& state = it->second;
    state.stats->AddHashes(hashes);
    ++counters_.appends;
    counters_.rows_appended += static_cast<int64_t>(hashes.size());
    // A column born empty has nothing to estimate until its first row
    // arrives: publish nothing and report the epoch readers already see.
    if (state.stats->rows() == 0) return catalog_->epoch();

    // Publish the refreshed statistics as a new epoch. GEE bounds are
    // recomputed over the live reservoir, so the published bracket covers
    // the appended rows.
    ColumnStats snapshot = state.stats->Snapshot(column, *estimator_);
    epoch = catalog_->Put(std::move(snapshot));
    ++counters_.publications;

    if (!state.baseline_valid) {
      // First publication of an untracked-by-ANALYZE column: it becomes
      // the drift baseline.
      const auto published = catalog_->Find(column);
      NDV_CHECK_MSG(published.has_value(),
                    "publication of '%s' did not land", column.c_str());
      state.tolerance = published->upper - published->lower;
      state.baseline_valid = true;
      state.stats->MarkFresh();
    } else if (DriftTriggerFires(state.stats->DriftSinceFresh(),
                                 state.tolerance) &&
               !reanalyze_inflight_) {
      ++counters_.drift_fires;
      reanalyze_inflight_ = true;
      if (options_.background) {
        SharedThreadPool().Submit([this] { RunReanalyze(); });
      } else {
        fire_inline = true;
      }
    }
  }
  if (fire_inline) RunReanalyze();
  return epoch;
}

void StatsMaintainer::RunReanalyze() {
  StatusOr<StatsCatalog> fresh = [&]() -> StatusOr<StatsCatalog> {
    try {
      return reanalyze_();
    } catch (const std::exception& e) {
      return InternalError("re-ANALYZE callback threw: %s", e.what());
    } catch (...) {
      return InternalError("re-ANALYZE callback threw a non-exception");
    }
  }();
  AdoptReanalyze(std::move(fresh));
}

void StatsMaintainer::AdoptReanalyze(StatusOr<StatsCatalog> fresh) {
  MutexLock lock(mutex_);
  if (!fresh.ok()) {
    ++counters_.reanalyze_failures;
    last_reanalyze_status_ = fresh.status();
  } else {
    catalog_->Publish(*std::move(fresh));
    ++counters_.reanalyzes;
    last_reanalyze_status_ = Status::Ok();
    // The fresh publication is the new drift baseline for every tracked
    // column it covers. Appends that raced the re-ANALYZE are already in
    // the trackers, so MarkFresh measures future drift from the tracker's
    // state now — the conservative reading (drift restarts at zero).
    const auto snapshot = catalog_->Snapshot();
    for (auto& [name, state] : columns_) {
      const auto published = snapshot->catalog.Find(name);
      if (!published.has_value()) continue;
      state.tolerance = published->upper - published->lower;
      state.baseline_valid = true;
      state.stats->MarkFresh();
    }
  }
  reanalyze_inflight_ = false;
  reanalyze_done_.NotifyAll();
}

double StatsMaintainer::Drift(const std::string& column) const {
  MutexLock lock(mutex_);
  const auto it = columns_.find(column);
  NDV_CHECK_MSG(it != columns_.end(), "column '%s' is not tracked",
                column.c_str());
  return it->second.stats->DriftSinceFresh();
}

double StatsMaintainer::Tolerance(const std::string& column) const {
  MutexLock lock(mutex_);
  const auto it = columns_.find(column);
  NDV_CHECK_MSG(it != columns_.end(), "column '%s' is not tracked",
                column.c_str());
  return it->second.baseline_valid
             ? it->second.tolerance
             : std::numeric_limits<double>::infinity();
}

MaintainerCounters StatsMaintainer::counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

Status StatsMaintainer::last_reanalyze_status() const {
  MutexLock lock(mutex_);
  return last_reanalyze_status_;
}

void StatsMaintainer::WaitForReanalyze() {
  MutexLock lock(mutex_);
  while (reanalyze_inflight_) reanalyze_done_.Wait(mutex_);
}

}  // namespace ndv
