#ifndef NDV_INGEST_MAINTENANCE_H_
#define NDV_INGEST_MAINTENANCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "catalog/concurrent_catalog.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "estimators/estimator.h"
#include "ingest/incremental_stats.h"

namespace ndv {

// Append-path statistics maintenance (DESIGN.md §17). StatsMaintainer owns
// one IncrementalStats per tracked column and keeps a ConcurrentStatsCatalog
// current under an append stream:
//
//   * Every append batch updates the column's tracker in O(batch) and
//     publishes a refreshed ColumnStats — estimate plus GEE
//     [LOWER, UPPER] — as a new catalog epoch (copy-on-write Put), so
//     readers always see statistics covering the appended rows. The
//     tracker keeps its reservoir's profile current, so the publication
//     reads it in O(max frequency), not O(reservoir).
//   * Drift trigger: each publication compares the tracker's O(1) sketch
//     drift since the last full re-ANALYZE against the width of the
//     interval that re-ANALYZE published. Only when drift EXCEEDS the
//     width — proof the running estimate escaped the published bracket —
//     is a full re-ANALYZE scheduled on the shared pool. A wide
//     (low-information, e.g. degraded) interval therefore tolerates more
//     drift than a tight one, and a zero-width (exact) interval fires on
//     any drift.
//   * The re-ANALYZE callback runs in the background (or inline with
//     background=false); its result is published wholesale and becomes
//     every tracked column's new drift baseline.
//
// Thread-safety: all public methods are thread-safe. The re-ANALYZE
// callback executes outside the maintainer's lock and may run concurrently
// with appends; it must tolerate that (or use background=false, where it
// runs inline in the appending thread before Append returns).

struct StatsMaintainerOptions {
  IncrementalStatsOptions tracker;
  // Estimator for incremental publications. GEE by default: its point
  // estimate is always inside the [LOWER, UPPER] bracket it publishes.
  std::string estimator = "GEE";
  // false runs a fired re-ANALYZE inline in Append (deterministic
  // single-thread mode for CLIs and tests); true schedules it on the
  // shared pool.
  bool background = true;
};

struct MaintainerCounters {
  int64_t appends = 0;        // append batches observed
  int64_t rows_appended = 0;  // rows across those batches
  int64_t publications = 0;   // incremental epochs published
  int64_t drift_fires = 0;    // drift trigger activations
  int64_t reanalyzes = 0;     // full re-ANALYZEs published
  int64_t reanalyze_failures = 0;
};

class StatsMaintainer {
 public:
  // Produces a full re-ANALYZE of the backing table (including appended
  // rows). Runs outside the maintainer's lock; see the thread-safety note
  // above.
  using ReanalyzeFn = std::function<StatusOr<StatsCatalog>()>;

  // `catalog` is not owned and must outlive the maintainer.
  StatsMaintainer(ConcurrentStatsCatalog* catalog, ReanalyzeFn reanalyze,
                  StatsMaintainerOptions options);
  // Waits for any in-flight background re-ANALYZE.
  ~StatsMaintainer();

  StatsMaintainer(const StatsMaintainer&) = delete;
  StatsMaintainer& operator=(const StatsMaintainer&) = delete;

  // Registers `column` and warms its tracker with the rows of `existing`
  // (the column's current contents; pass a zero-row slice for a column
  // born empty). The drift baseline comes from the catalog's published
  // entry when present; otherwise the first publication establishes it.
  void Track(const std::string& column, const ColumnSlice& existing)
      NDV_EXCLUDES(mutex_);

  // Observes one append batch, publishes refreshed statistics, and fires
  // the drift trigger when warranted. Returns the published epoch. The
  // column must be tracked. While the column has no rows at all (born
  // empty, only empty batches so far) nothing is published and the
  // catalog's current epoch is returned.
  uint64_t Append(const std::string& column, const ColumnSlice& batch)
      NDV_EXCLUDES(mutex_);
  uint64_t AppendHashes(const std::string& column,
                        std::span<const uint64_t> hashes)
      NDV_EXCLUDES(mutex_);

  // Current sketch drift of `column` since its last full re-ANALYZE, and
  // the tolerance (baseline interval width) that drift is judged against
  // (+infinity while no baseline exists).
  double Drift(const std::string& column) const NDV_EXCLUDES(mutex_);
  double Tolerance(const std::string& column) const NDV_EXCLUDES(mutex_);

  MaintainerCounters counters() const NDV_EXCLUDES(mutex_);
  // Status of the most recent re-ANALYZE (OK when none has run yet).
  Status last_reanalyze_status() const NDV_EXCLUDES(mutex_);

  // Blocks until no background re-ANALYZE is in flight.
  void WaitForReanalyze() NDV_EXCLUDES(mutex_);

 private:
  struct ColumnState {
    std::unique_ptr<IncrementalStats> stats;
    // Width of the interval published by the last full re-ANALYZE (the
    // drift tolerance); invalid until a baseline exists.
    double tolerance = 0.0;
    bool baseline_valid = false;
  };

  // Hashes `batch` and forwards to AppendHashes.
  static std::vector<uint64_t> HashBatch(const ColumnSlice& batch);

  // Adopts `fresh` as the published truth: wholesale Publish plus new
  // drift baselines for every tracked column it covers.
  void AdoptReanalyze(StatusOr<StatsCatalog> fresh) NDV_EXCLUDES(mutex_);
  // Runs reanalyze_ outside the lock, then adopts the result.
  void RunReanalyze() NDV_EXCLUDES(mutex_);

  ConcurrentStatsCatalog* const catalog_;  // not owned
  const ReanalyzeFn reanalyze_;
  const StatsMaintainerOptions options_;
  const std::unique_ptr<const Estimator> estimator_;

  mutable Mutex mutex_;
  CondVar reanalyze_done_;
  std::map<std::string, ColumnState> columns_ NDV_GUARDED_BY(mutex_);
  MaintainerCounters counters_ NDV_GUARDED_BY(mutex_);
  bool reanalyze_inflight_ NDV_GUARDED_BY(mutex_) = false;
  Status last_reanalyze_status_ NDV_GUARDED_BY(mutex_);
};

}  // namespace ndv

#endif  // NDV_INGEST_MAINTENANCE_H_
