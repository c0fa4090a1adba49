// Fault-tolerant distributed ANALYZE: a table sharded over several
// partitions, each worker drawing a uniform without-replacement sample of
// its shard; the coordinator retries transient failures with exponential
// backoff, merges the surviving samples into one uniform table-level
// sample, and — when
// partitions are lost for good — degrades gracefully by widening the GEE
// interval instead of failing, so the reported [LOWER, UPPER] still
// brackets the true D.
//
//   ./build/examples/distributed_analyze

#include <cstdio>

#include "datagen/zipf.h"
#include "distributed/distributed_analyze.h"
#include "table/table.h"

namespace {

void PrintResult(const char* title,
                 const ndv::DistributedAnalyzeResult& result,
                 int64_t actual) {
  std::printf("--- %s ---\n", title);
  for (const ndv::PartitionOutcome& outcome : result.outcomes) {
    std::printf("  worker %d: %lld rows, %d attempt%s -> %s%s%s\n",
                outcome.partition, static_cast<long long>(outcome.rows),
                outcome.attempts, outcome.attempts == 1 ? "" : "s",
                std::string(PartitionStateName(outcome.state)).c_str(),
                outcome.status.ok() ? "" : ": ",
                outcome.status.ok() ? "" : outcome.status.ToString().c_str());
  }
  const ndv::ColumnStats& stats = result.stats;
  std::printf("  coverage  = %.1f%% (%s)\n", 100.0 * stats.coverage,
              stats.degraded ? "DEGRADED" : "complete");
  std::printf("  estimate  = %.0f (%s)\n", stats.estimate,
              stats.method.c_str());
  std::printf("  interval  = [%.0f, %.0f]\n", stats.lower, stats.upper);
  std::printf("  actual D  = %lld (%s the interval)\n\n",
              static_cast<long long>(actual),
              stats.lower <= static_cast<double>(actual) &&
                      static_cast<double>(actual) <= stats.upper
                  ? "inside"
                  : "OUTSIDE");
}

}  // namespace

int main() {
  // One logical column of 1M rows, sharded row-wise across 8 workers.
  ndv::ZipfColumnOptions column_options;
  column_options.rows = 1000000;
  column_options.z = 1.0;
  column_options.dup_factor = 100;
  const auto column = ndv::MakeZipfColumn(column_options);
  const int64_t actual = ndv::ExactDistinctHashSet(*column);

  ndv::DistributedAnalyzeOptions options;
  options.partitions = 8;
  options.sample_rows = 10000;
  options.max_attempts = 3;
  options.seed = 7;
  // All injected faults below run on a virtual clock: the backoff schedule
  // is fully exercised but costs no wall-clock time.
  ndv::VirtualClock clock;
  options.clock = &clock;

  // 1. Fault-free run: every worker succeeds on the first attempt.
  const auto clean = ndv::DistributedAnalyze(*column, "value", options);
  if (!clean.ok()) {
    std::printf("unexpected error: %s\n", clean.status().ToString().c_str());
    return 1;
  }
  PrintResult("fault-free", *clean, actual);

  // 2. Transient faults: worker 1 fails once, worker 4's first reply is
  // corrupted in transit. Retries recover both; the statistics are
  // bit-identical to the fault-free run.
  ndv::FaultPlan transient;
  transient.Set(1, ndv::FaultSpec::FailOnce());
  transient.Set(4, ndv::FaultSpec::Corrupt(1));
  options.faults = &transient;
  const auto recovered = ndv::DistributedAnalyze(*column, "value", options);
  if (!recovered.ok()) {
    std::printf("unexpected error: %s\n",
                recovered.status().ToString().c_str());
    return 1;
  }
  PrintResult("transient faults, recovered by retries", *recovered, actual);
  std::printf("identical to fault-free run: %s\n\n",
              recovered->stats.estimate == clean->stats.estimate &&
                      recovered->stats.upper == clean->stats.upper
                  ? "yes"
                  : "NO");

  // 3. Permanent faults: workers 2 and 5 never answer. The coordinator
  // degrades — it merges the 6 survivors, reports coverage 75%, and widens
  // UPPER by the 250k unscanned rows, keeping the true D inside.
  ndv::FaultPlan permanent;
  permanent.Set(2, ndv::FaultSpec::FailAlways());
  permanent.Set(5, ndv::FaultSpec::Truncate(ndv::FaultSpec::kAlways));
  options.faults = &permanent;
  const auto degraded = ndv::DistributedAnalyze(*column, "value", options);
  if (!degraded.ok()) {
    std::printf("unexpected error: %s\n",
                degraded.status().ToString().c_str());
    return 1;
  }
  PrintResult("two partitions lost, gracefully degraded", *degraded, actual);

  std::printf(
      "Unscanned rows are folded into the interval (one potential new\n"
      "distinct value each), so a partial ANALYZE still yields a valid,\n"
      "honest [LOWER, UPPER] instead of an error.\n");
  return 0;
}
