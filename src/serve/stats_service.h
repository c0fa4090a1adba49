#ifndef NDV_SERVE_STATS_SERVICE_H_
#define NDV_SERVE_STATS_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/concurrent_catalog.h"
#include "catalog/durable_catalog.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "distributed/clock.h"
#include "distributed/retry.h"
#include "ingest/incremental_stats.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "table/table.h"

namespace ndv {

// The NDV stats service: turns the one-shot `ndv_cli analyze` flow into a
// long-running server that many concurrent clients query for per-column
// [LOWER, UPPER] brackets. Architecture in DESIGN.md §13.
//
//   * Reads resolve against a ConcurrentStatsCatalog snapshot — an
//     immutable epoch — so GET_STATS never blocks an in-flight ANALYZE and
//     never observes a torn catalog.
//   * The published catalog IS the per-table result cache. Staleness per
//     column combines the volume trigger (IncrementalStats::
//     IsStaleOrStatus over inserts observed since the last publication)
//     with the paper's interval: a column is also stale when its
//     tracker's running sketch estimate drifts out of the published
//     [LOWER, UPPER] bracket — a wide (low-information) interval
//     tolerates more drift before forcing a re-ANALYZE than a tight one.
//     The drift read is O(1): the tracker's sketches keep their estimate
//     inputs current (no estimator re-evaluation over the reservoir on
//     the probe path).
//   * ANALYZE with force=false is a cache probe: it re-analyzes and
//     publishes a new epoch only if some column is stale, otherwise it
//     answers with the current epoch and refreshed=false.
//   * Admission control: at most `max_inflight` requests execute at once;
//     beyond that, Submit answers immediately with an UNAVAILABLE error
//     frame ("overloaded") instead of queueing unboundedly — the client's
//     retry/backoff (distributed/retry.h) is the load-shedding loop.

struct StatsServiceOptions {
  AnalyzeOptions analyze;  // estimator, sample fraction, seed, threads
  // Drift threshold fed to IsStaleOrStatus (fraction of rows changed since
  // the last publication that makes a column stale).
  double stale_changed_fraction = 0.2;
  // Admission bound: requests executing concurrently before load shedding.
  int max_inflight = 256;
  Clock* clock = nullptr;  // nullptr = SystemClock()
  // Optional durability (not owned; must outlive the service). When set,
  // every publication is journaled to the durable catalog's WAL BEFORE it
  // becomes reader-visible, and a service constructed over a non-empty
  // recovered catalog publishes the recovered state at the recovered epoch
  // instead of re-scanning the table at boot.
  DurableCatalog* durable = nullptr;
};

class StatsService {
 public:
  // Analyzes `table` once and publishes the result as epoch 1, so the
  // service is queryable from the start.
  StatsService(std::shared_ptr<const Table> table,
               StatsServiceOptions options);

  StatsService(const StatsService&) = delete;
  StatsService& operator=(const StatsService&) = delete;

  // Serves one request synchronously; total (any request maps to exactly
  // one response, malformed ones to ERROR). Thread-safe.
  Message Handle(const Message& request);

  // Admission-controlled entry point used by transports and the load
  // generator: over-capacity requests get an immediate UNAVAILABLE reply.
  Message Submit(const Message& request);

  // Feeds the insert path: `hashes` are value hashes of rows appended to
  // `column` since the last ANALYZE. Drives the staleness rule; unknown
  // columns are ignored (the next full ANALYZE will pick them up).
  void ObserveInserts(const std::string& column,
                      const std::vector<uint64_t>& hashes)
      NDV_EXCLUDES(tracker_mutex_);

  // Read-side snapshot access (also used by benchmarks/tests).
  std::shared_ptr<const CatalogEpoch> Snapshot() const {
    return catalog_.Snapshot();
  }
  uint64_t epoch() const { return catalog_.epoch(); }

  // Current number of executing requests (admission gauge).
  int inflight() const NDV_EXCLUDES(inflight_mutex_);

 private:
  Message HandleGetStats(const Message& request)
      NDV_EXCLUDES(tracker_mutex_);
  Message HandleAnalyze(const Message& request)
      NDV_EXCLUDES(analyze_mutex_, tracker_mutex_);
  Message HandleList();
  // Staleness of one column under the published epoch: true when Rule 1
  // (rows appended past stale_changed_fraction) or Rule 2 (sketch drift
  // past the published bracket's width) fires. Fails only when
  // stale_changed_fraction is invalid.
  StatusOr<bool> ColumnIsStale(const ColumnStats& published)
      NDV_EXCLUDES(tracker_mutex_);
  // Runs AnalyzeTable, journals the result (when durability is on), and
  // publishes it; returns the new epoch. Fails only when the journal
  // append fails — in which case nothing was published and no reader ever
  // observes the unacknowledged statistics.
  StatusOr<uint64_t> ReanalyzeAndPublish() NDV_EXCLUDES(tracker_mutex_);

  const std::shared_ptr<const Table> table_;
  const StatsServiceOptions options_;
  Clock& clock_;
  ConcurrentStatsCatalog catalog_;

  // Serializes re-ANALYZE work so a thundering herd of stale probes runs
  // one table scan, not N. Ordered before tracker_mutex_: the analyze path
  // holds it across ReanalyzeAndPublish, which takes tracker_mutex_ to
  // reset drift baselines.
  Mutex analyze_mutex_ NDV_ACQUIRED_BEFORE(tracker_mutex_);

  // Insert trackers, one per column; guarded by tracker_mutex_ (the
  // serving hot path only reads row counters and sketch registers).
  mutable Mutex tracker_mutex_;
  std::map<std::string, std::unique_ptr<IncrementalStats>> trackers_
      NDV_GUARDED_BY(tracker_mutex_);

  // Admission control.
  mutable Mutex inflight_mutex_;
  int inflight_ NDV_GUARDED_BY(inflight_mutex_) = 0;
};

// Serves decoded frames from `transport` until the peer closes (Receive
// reports Unavailable) or a framing error proves the stream corrupt.
// Malformed payloads are answered with ERROR frames, not dropped
// connections. `idle_timeout_ms` <= 0 waits forever between requests.
void ServeConnection(Transport& transport, StatsService& service,
                     int64_t idle_timeout_ms = 0);

// Client-side stub: request/response with the deadline/retry/Clock
// machinery shared with the distributed coordinator. Transient failures
// (UNAVAILABLE backpressure, timeouts, corrupt frames) are retried with
// exponential backoff until `retry.max_attempts` or `deadline_ms` runs out.
struct StatsClientOptions {
  RetryPolicy retry;
  int64_t attempt_timeout_ms = 1000;  // per Receive; <= 0 waits forever
  int64_t deadline_ms = 0;            // whole-call budget; 0 = none
  Clock* clock = nullptr;             // nullptr = SystemClock()
};

class StatsClient {
 public:
  StatsClient(Transport& transport, StatsClientOptions options);

  // GET_STATS: the published ColumnStats + epoch + staleness verdict.
  struct StatsResult {
    ColumnStats stats;
    uint64_t epoch = 0;
    bool stale = false;
  };
  StatusOr<StatsResult> GetStats(const std::string& column);

  // LIST: column names under the current epoch.
  StatusOr<std::vector<std::string>> List();

  // ANALYZE: ask the server to refresh; force bypasses the staleness probe.
  struct AnalyzeResult {
    uint64_t epoch = 0;
    int64_t analyzed_columns = 0;
    bool refreshed = false;
  };
  StatusOr<AnalyzeResult> Analyze(bool force = false);

 private:
  // One retried request/response exchange; checks the reply type.
  StatusOr<Message> Call(const Message& request, MessageType expected);

  Transport& transport_;
  StatsClientOptions options_;
  Clock& clock_;
};

}  // namespace ndv

#endif  // NDV_SERVE_STATS_SERVICE_H_
