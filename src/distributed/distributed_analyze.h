#ifndef NDV_DISTRIBUTED_DISTRIBUTED_ANALYZE_H_
#define NDV_DISTRIBUTED_DISTRIBUTED_ANALYZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/durable_catalog.h"
#include "catalog/stats_catalog.h"
#include "common/status.h"
#include "core/gee.h"
#include "distributed/clock.h"
#include "distributed/fault_injection.h"
#include "table/column.h"

namespace ndv {

// Fault-tolerant distributed ANALYZE — the coordinator/worker shape of
// "Sampling-based Estimation of the Number of Distinct Values in a
// Distributed Environment" (Li et al.), built on this library's exact
// merge of per-partition samples (sample/partition_merge.h).
//
// The column is split row-wise into `partitions` contiguous shards. Each
// worker draws min(sample_rows, shard rows) rows of its shard uniformly
// without replacement (Floyd), hashes them in one block-grouped gather,
// and replies with {population, items, checksum}; the coordinator
// validates every reply (sample large enough to serve any
// hypergeometric allocation, checksum intact), retries failed or invalid
// replies with exponential backoff, merges the survivors into one uniform
// table-level sample, and estimates distinct values from it.
//
// Failure model (DESIGN.md §9):
//  * Transient worker errors (Unavailable, attempt DeadlineExceeded,
//    DataLoss from a truncated/corrupt reply) are retried up to
//    `max_attempts` times per partition with exponential backoff on the
//    injected clock.
//  * A partition that exhausts its attempts (or the coordinator deadline)
//    fails PERMANENTLY. If at least one partition survives, the coordinator
//    degrades instead of failing: it merges the survivors, records
//    coverage = scanned rows / total rows, and widens the GEE interval by
//    counting every unscanned row as potentially one new distinct value
//    (LOWER unchanged, UPPER += rows of failed partitions) — so
//    [lower, upper] still brackets the true D.
//  * Only when EVERY partition fails does DistributedAnalyze return an
//    error status.
//
// Determinism: per-partition sampling RNGs and the merge RNG are
// pre-forked sequentially from `seed`, and a retried attempt re-draws with
// a fresh copy of its partition's RNG. A run whose faults are all
// recovered by retries is therefore bit-identical to the fault-free run,
// at any thread count.

struct DistributedAnalyzeOptions {
  // Sharding + sampling.
  int partitions = 8;
  int64_t sample_rows = 10000;  // coordinator's merged-sample target (>= 1)
  std::string estimator = "AE";

  // Retry policy: per-partition attempts and exponential backoff
  // (backoff_base_ms * 2^k, capped at backoff_max_ms, before retry k+1).
  int max_attempts = 3;
  int64_t backoff_base_ms = 100;
  int64_t backoff_max_ms = 2000;
  // A worker attempt slower than this fails with DeadlineExceeded and is
  // retried. 0 = no per-attempt timeout.
  int64_t attempt_timeout_ms = 1000;
  // Overall coordinator budget measured from the start of the call; once
  // exceeded, no further attempts are made (pending partitions fail with
  // DeadlineExceeded). 0 = no deadline.
  int64_t deadline_ms = 0;

  uint64_t seed = 1;
  // Worker threads (0 = auto via DefaultThreadCount()/NDV_THREADS; 1 runs
  // partitions inline in order). Outcomes are thread-count independent
  // except which partitions a *coordinator deadline* cuts off first.
  int threads = 0;

  // Test hooks (not owned; may be nullptr).
  const FaultPlan* faults = nullptr;  // nullptr = no injected faults
  Clock* clock = nullptr;             // nullptr = SystemClock()

  // Optional durability (not owned): when set, the coordinator journals
  // the finished ColumnStats — including degraded-coverage results —
  // through the durable catalog's WAL before returning, so a post-ANALYZE
  // crash cannot lose what the coordinator already paid partitions to
  // compute. A journal failure fails the analyze (the result would not
  // survive recovery, so it is not acknowledged).
  DurableCatalog* durable = nullptr;
};

enum class PartitionState {
  kScanned,    // clean success on the first attempt
  kRecovered,  // succeeded after >= 1 retries
  kFailed,     // exhausted attempts or hit the coordinator deadline
};

std::string_view PartitionStateName(PartitionState state);

struct PartitionOutcome {
  int partition = 0;
  int64_t rows = 0;      // rows in this partition's shard
  int attempts = 0;      // attempts actually made (>= 1 unless deadline)
  PartitionState state = PartitionState::kScanned;
  Status status;         // OK for kScanned/kRecovered; the final error for
                         // kFailed
};

struct DistributedAnalyzeResult {
  // Planner-facing statistics: coverage, degraded flag, and the (possibly
  // widened) [lower, upper] interval. stats.table_rows is the FULL table
  // size; stats.coverage * table_rows rows were actually scanned.
  ColumnStats stats;

  // The GEE interval over the scanned region alone (n = scanned rows),
  // before widening. stats.upper == scanned_bounds.upper + unscanned rows
  // when degraded.
  GeeBounds scanned_bounds;

  int64_t total_rows = 0;
  int64_t scanned_rows = 0;
  bool degraded = false;  // == stats.degraded
  double coverage = 1.0;  // == stats.coverage

  std::vector<PartitionOutcome> outcomes;  // one per partition, in order
};

// Runs the distributed ANALYZE of one column. Returns:
//  * ok result with degraded == false: all partitions scanned (possibly
//    after retries); statistics identical to the fault-free run.
//  * ok result with degraded == true: >= 1 partitions permanently failed;
//    interval widened as described above, coverage < 1.
//  * error status: invalid options (InvalidArgument) or every partition
//    failed permanently (Unavailable / DeadlineExceeded).
StatusOr<DistributedAnalyzeResult> DistributedAnalyze(
    const Column& column, std::string_view column_name,
    const DistributedAnalyzeOptions& options);

}  // namespace ndv

#endif  // NDV_DISTRIBUTED_DISTRIBUTED_ANALYZE_H_
