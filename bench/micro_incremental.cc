// micro_incremental — the incremental-maintenance headline benchmark
// (DESIGN.md §17). Not a google-benchmark binary: the scenario is a
// stateful append stream whose metrics (amortized update cost, bracket
// containment, drift-fire timing) need a custom harness.
//
// Scenario: a 1M-row base table is ANALYZEd once; a StatsMaintainer then
// absorbs `--batches` append batches of `--batch-rows` rows, each batch
// introducing `--novel` never-seen values. After every batch the
// maintainer publishes a refreshed GEE estimate + [LOWER, UPPER] bracket
// as a new catalog epoch, and the drift trigger schedules a full
// re-ANALYZE only when the tracker's sketch drift exceeds the published
// interval's width (sync mode here, so fires run inline and the run is
// deterministic).
//
// Reported (stdout summary + JSON at --out):
//   * amortized per-append-batch update cost, excluding and including
//     drift-fired inline re-ANALYZEs, vs the cost of a full re-ANALYZE —
//     the naive freshness alternative ("re-ANALYZE after every batch");
//   * ratio error of every published estimate against the by-construction
//     true distinct count, plus bracket-containment violations (must be 0);
//   * the drift trace: per-batch drift vs tolerance, where the trigger
//     fired, and how many full re-ANALYZEs it scheduled.
//
//   ./build/bench/micro_incremental --rows=1000000 --batch-rows=1000
//       --batches=64 --out=BENCH_incremental.json

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/concurrent_catalog.h"
#include "catalog/stats_catalog.h"
#include "common/status.h"
#include "ingest/incremental_stats.h"
#include "ingest/maintenance.h"
#include "storage/materialize.h"
#include "table/column.h"
#include "table/table.h"

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(rank + 0.5)];
}

int64_t FlagInt(const std::map<std::string, std::string>& flags,
                const std::string& name, int64_t fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : std::stoll(it->second);
}

// One row of the per-batch trace, kept small enough to check into the
// baselines JSON in full.
struct BatchTrace {
  int64_t batch = 0;
  int64_t truth = 0;         // true distinct count, by construction
  double estimate = 0.0;     // published point estimate
  double lower = 0.0;        // published GEE bracket
  double upper = 0.0;
  double drift = 0.0;        // tracker sketch drift after the batch
  double tolerance = 0.0;    // baseline interval width judged against
  bool fired = false;        // drift trigger scheduled a re-ANALYZE
  int64_t append_ns = 0;     // batch latency excluding inline re-ANALYZE
};

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg] = "true";
    } else {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }

  const int64_t base_rows = FlagInt(flags, "rows", 1000000);
  // 10000 distinct values in 1M rows puts the GEE interval width (which
  // is f1 * (n/r - 1)) in the few-thousand range at a 5% sample, so the
  // default append stream escapes the bracket mid-run and the drift
  // trigger's fire/re-ANALYZE/recover cycle shows up in the trace.
  const int64_t base_distinct = FlagInt(flags, "distinct", 10000);
  const int64_t batches = FlagInt(flags, "batches", 64);
  const int64_t batch_rows = FlagInt(flags, "batch-rows", 1000);
  const int64_t novel_per_batch = FlagInt(flags, "novel", 500);
  const int64_t analyze_reps = FlagInt(flags, "analyze-reps", 3);
  const std::string out_path =
      flags.count("out") ? flags["out"] : "BENCH_incremental.json";

  // ---- Base table: `base_rows` rows cycling through `base_distinct`
  // values, so the true distinct count is exact by construction. A stride
  // coprime to the modulus scatters equal values across the table instead
  // of clustering them, which is the layout a sampler actually faces.
  std::vector<int64_t> base_values;
  base_values.reserve(static_cast<size_t>(base_rows));
  for (int64_t i = 0; i < base_rows; ++i) {
    base_values.push_back((i * 7919) % base_distinct);
  }
  ndv::Table base;
  base.AddColumn("value",
                 std::make_unique<ndv::Int64Column>(std::move(base_values)));

  // ---- Append stream: each batch carries `novel_per_batch` never-seen
  // values (monotone ids past the base domain) plus duplicates of the base
  // domain, so the running truth is base_distinct + novel ids issued.
  std::vector<int64_t> append_values;
  append_values.reserve(static_cast<size_t>(batches * batch_rows));
  int64_t novel_issued = 0;
  for (int64_t b = 0; b < batches; ++b) {
    for (int64_t j = 0; j < batch_rows; ++j) {
      if (j < novel_per_batch) {
        append_values.push_back(base_distinct + novel_issued++);
      } else {
        append_values.push_back(((b * batch_rows + j) * 104729) %
                                base_distinct);
      }
    }
  }
  const ndv::Int64Column append_column(std::move(append_values));

  ndv::AnalyzeOptions analyze;
  analyze.sample_fraction = 0.05;
  analyze.estimator = "GEE";
  analyze.seed = 7;
  analyze.threads = 1;

  // ---- Baseline: the cost of one full re-ANALYZE of the base table —
  // what a "re-ANALYZE after every batch" policy pays per refresh.
  int64_t full_min_ns = 0;
  double full_mean_ns = 0.0;
  for (int64_t rep = 0; rep < analyze_reps; ++rep) {
    const int64_t start = NowNanos();
    const ndv::StatsCatalog fresh = ndv::AnalyzeTable(base, analyze);
    const int64_t elapsed = NowNanos() - start;
    if (!fresh.Find("value")) {
      std::fprintf(stderr, "baseline ANALYZE produced no stats\n");
      return 1;
    }
    full_mean_ns += static_cast<double>(elapsed);
    if (rep == 0 || elapsed < full_min_ns) full_min_ns = elapsed;
  }
  full_mean_ns /= static_cast<double>(analyze_reps);
  std::printf("full re-ANALYZE of %lld rows: %.3f ms (min %.3f ms over "
              "%lld reps)\n",
              static_cast<long long>(base_rows), full_mean_ns * 1e-6,
              static_cast<double>(full_min_ns) * 1e-6,
              static_cast<long long>(analyze_reps));

  // ---- The maintained path. The re-ANALYZE callback rebuilds base +
  // appended-so-far (exactly what `ndv_cli ingest` does) and is timed
  // separately so batch latencies can be reported with and without it.
  ndv::ConcurrentStatsCatalog catalog(ndv::AnalyzeTable(base, analyze));
  int64_t appended_rows = 0;
  int64_t reanalyze_ns_this_batch = 0;
  int64_t reanalyze_ns_total = 0;
  auto reanalyze = [&]() -> ndv::StatusOr<ndv::StatsCatalog> {
    const int64_t start = NowNanos();
    auto slice_or = ndv::MaterializeColumnSlice(append_column, 0,
                                                appended_rows);
    if (!slice_or.ok()) return slice_or.status();
    ndv::Table appended;
    appended.AddColumn("value", std::move(*slice_or));
    auto concat_or = ndv::ConcatTables(base, appended);
    if (!concat_or.ok()) return concat_or.status();
    ndv::StatsCatalog fresh = ndv::AnalyzeTable(*concat_or, analyze);
    reanalyze_ns_this_batch += NowNanos() - start;
    return fresh;
  };

  ndv::StatsMaintainerOptions maintainer_options;
  maintainer_options.tracker.seed = analyze.seed + 1;
  maintainer_options.estimator = "GEE";
  maintainer_options.background = false;  // inline fires, deterministic run
  ndv::StatsMaintainer maintainer(&catalog, reanalyze, maintainer_options);
  maintainer.Track("value", ndv::FullColumnSlice(base.column(0)));

  std::vector<BatchTrace> trace;
  trace.reserve(static_cast<size_t>(batches));
  std::vector<int64_t> append_latencies;
  append_latencies.reserve(static_cast<size_t>(batches));
  int64_t total_append_ns = 0;
  int64_t bracket_violations = 0;
  double max_ratio_error = 1.0;
  int64_t first_fire_batch = -1;

  for (int64_t b = 0; b < batches; ++b) {
    const ndv::ColumnSlice slice{&append_column, b * batch_rows,
                                 (b + 1) * batch_rows};
    // Advance the visible high-water mark first so a drift-fired inline
    // re-ANALYZE covers this batch's rows.
    appended_rows = slice.end;
    reanalyze_ns_this_batch = 0;
    const int64_t fires_before = maintainer.counters().drift_fires;
    const int64_t start = NowNanos();
    maintainer.Append("value", slice);
    const int64_t elapsed = NowNanos() - start;
    total_append_ns += elapsed;
    reanalyze_ns_total += reanalyze_ns_this_batch;
    append_latencies.push_back(elapsed - reanalyze_ns_this_batch);

    const auto published = catalog.Find("value");
    if (!published) {
      std::fprintf(stderr, "batch %lld: no published stats\n",
                   static_cast<long long>(b));
      return 1;
    }
    const int64_t truth =
        base_distinct + std::min((b + 1) * novel_per_batch,
                                 novel_issued);
    BatchTrace row;
    row.batch = b;
    row.truth = truth;
    row.estimate = published->estimate;
    row.lower = published->lower;
    row.upper = published->upper;
    row.drift = maintainer.Drift("value");
    row.tolerance = maintainer.Tolerance("value");
    row.fired = maintainer.counters().drift_fires > fires_before;
    row.append_ns = elapsed - reanalyze_ns_this_batch;
    trace.push_back(row);

    if (published->estimate < published->lower ||
        published->estimate > published->upper) {
      ++bracket_violations;
    }
    const double ratio =
        std::max(published->estimate / static_cast<double>(truth),
                 static_cast<double>(truth) / published->estimate);
    max_ratio_error = std::max(max_ratio_error, ratio);
    if (row.fired && first_fire_batch < 0) first_fire_batch = b;
  }

  const ndv::MaintainerCounters counters = maintainer.counters();
  if (!maintainer.last_reanalyze_status().ok()) {
    std::fprintf(stderr, "re-ANALYZE failed: %s\n",
                 maintainer.last_reanalyze_status().ToString().c_str());
    return 1;
  }

  std::vector<int64_t> sorted = append_latencies;
  std::sort(sorted.begin(), sorted.end());
  const double amortized_ns =
      static_cast<double>(total_append_ns - reanalyze_ns_total) /
      static_cast<double>(batches);
  const double amortized_with_reanalyze_ns =
      static_cast<double>(total_append_ns) / static_cast<double>(batches);
  const double speedup =
      full_mean_ns / amortized_ns;
  const double speedup_with_reanalyze =
      full_mean_ns / amortized_with_reanalyze_ns;

  std::printf("append path: %lld batches of %lld rows, amortized %.1f us "
              "(p50 %.1f us, p95 %.1f us, max %.1f us)\n",
              static_cast<long long>(batches),
              static_cast<long long>(batch_rows), amortized_ns * 1e-3,
              static_cast<double>(Percentile(sorted, 50)) * 1e-3,
              static_cast<double>(Percentile(sorted, 95)) * 1e-3,
              static_cast<double>(sorted.back()) * 1e-3);
  std::printf("  vs full re-ANALYZE per batch: %.0fx (%.0fx counting the "
              "%lld drift-fired re-ANALYZEs)\n",
              speedup, speedup_with_reanalyze,
              static_cast<long long>(counters.reanalyzes));
  std::printf("accuracy: %lld/%lld estimates inside their bracket, max "
              "ratio error %.3f\n",
              static_cast<long long>(batches - bracket_violations),
              static_cast<long long>(batches), max_ratio_error);
  std::printf("drift: %lld fires (first at batch %lld), %lld re-ANALYZEs, "
              "final drift %.1f vs tolerance %.1f\n",
              static_cast<long long>(counters.drift_fires),
              static_cast<long long>(first_fire_batch),
              static_cast<long long>(counters.reanalyzes),
              maintainer.Drift("value"), maintainer.Tolerance("value"));

  // ---- JSON report.
  std::string json = "{\n  \"config\": {";
  char buffer[768];
  std::snprintf(buffer, sizeof(buffer),
                "\"base_rows\": %lld, \"base_distinct\": %lld, "
                "\"batches\": %lld, \"batch_rows\": %lld, "
                "\"novel_per_batch\": %lld, \"sample_fraction\": %.3f, "
                "\"estimator\": \"GEE\"}",
                static_cast<long long>(base_rows),
                static_cast<long long>(base_distinct),
                static_cast<long long>(batches),
                static_cast<long long>(batch_rows),
                static_cast<long long>(novel_per_batch),
                analyze.sample_fraction);
  json.append(buffer);
  std::snprintf(buffer, sizeof(buffer),
                ",\n  \"full_reanalyze\": {\"reps\": %lld, "
                "\"mean_ns\": %.0f, \"min_ns\": %lld}",
                static_cast<long long>(analyze_reps), full_mean_ns,
                static_cast<long long>(full_min_ns));
  json.append(buffer);
  std::snprintf(buffer, sizeof(buffer),
                ",\n  \"append\": {\"amortized_ns\": %.0f, "
                "\"amortized_with_reanalyze_ns\": %.0f, "
                "\"p50_ns\": %lld, \"p95_ns\": %lld, \"max_ns\": %lld, "
                "\"sub_millisecond\": %s}",
                amortized_ns, amortized_with_reanalyze_ns,
                static_cast<long long>(Percentile(sorted, 50)),
                static_cast<long long>(Percentile(sorted, 95)),
                static_cast<long long>(sorted.back()),
                amortized_ns < 1e6 ? "true" : "false");
  json.append(buffer);
  std::snprintf(buffer, sizeof(buffer),
                ",\n  \"speedup\": {\"vs_full_reanalyze\": %.1f, "
                "\"with_drift_reanalyzes\": %.1f}",
                speedup, speedup_with_reanalyze);
  json.append(buffer);
  std::snprintf(buffer, sizeof(buffer),
                ",\n  \"accuracy\": {\"bracket_violations\": %lld, "
                "\"max_ratio_error\": %.4f, \"final_truth\": %lld, "
                "\"final_estimate\": %.1f}",
                static_cast<long long>(bracket_violations), max_ratio_error,
                static_cast<long long>(trace.back().truth),
                trace.back().estimate);
  json.append(buffer);
  std::snprintf(buffer, sizeof(buffer),
                ",\n  \"drift\": {\"fires\": %lld, \"reanalyzes\": %lld, "
                "\"reanalyze_failures\": %lld, \"first_fire_batch\": %lld, "
                "\"publications\": %lld}",
                static_cast<long long>(counters.drift_fires),
                static_cast<long long>(counters.reanalyzes),
                static_cast<long long>(counters.reanalyze_failures),
                static_cast<long long>(first_fire_batch),
                static_cast<long long>(counters.publications));
  json.append(buffer);
  json.append(",\n  \"trace\": [");
  for (size_t i = 0; i < trace.size(); ++i) {
    const BatchTrace& row = trace[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n    {\"batch\": %lld, \"truth\": %lld, "
                  "\"estimate\": %.1f, \"lower\": %.1f, \"upper\": %.1f, "
                  "\"drift\": %.1f, \"tolerance\": %.1f, \"fired\": %s, "
                  "\"append_ns\": %lld}",
                  i == 0 ? "" : ",", static_cast<long long>(row.batch),
                  static_cast<long long>(row.truth), row.estimate,
                  row.lower, row.upper, row.drift, row.tolerance,
                  row.fired ? "true" : "false",
                  static_cast<long long>(row.append_ns));
    json.append(buffer);
  }
  json.append("\n  ]\n}\n");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("report written to %s\n", out_path.c_str());
  return 0;
}
