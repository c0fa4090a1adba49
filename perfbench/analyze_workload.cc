// Workload `analyze`: repeated ANALYZE of one auto-codec ndvpack.
//
// Set-up writes a 4-column pack with WritePackFileV2's default codec:
//   key    sorted int64 (delta-coded)      score  uniform double (raw)
//   label  50-value string (dict-coded)    item   Zipf z=1, dup 10, shuffled
// One op is LoadTableAuto -> AnalyzeTable (1%, AE, one thread, per-op
// seed) -> DurableCatalog::AppendPublish (fsync every record) ->
// ConcurrentStatsCatalog::Publish, in a closed loop. An op is timed in
// thread CPU time and reported in reference time, with a gauge reading
// before every op (bench.h, SpeedGauge). Per-op seeds cycle
// over kSeedCycle values, so the first cycle is scored for quality and
// every later op must reproduce its cycle-mate bit for bit.
//
// The traced run replaces AnalyzeTable with the same public calls it
// makes (forked per-column Rng -> SampleWithoutReplacementFloyd ->
// SummarizeRows -> ComputeGeeBounds + Estimate) and checks that the result
// is bit-identical to AnalyzeTable's.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "catalog/concurrent_catalog.h"
#include "catalog/durable_catalog.h"
#include "core/all_estimators.h"
#include "core/gee.h"
#include "datagen/zipf.h"
#include "sample/samplers.h"
#include "storage/pack_writer.h"
#include "storage/table_loader.h"
#include "table/column_sampling.h"

namespace perfbench {
namespace {

constexpr int kSeedCycle = 8;
constexpr double kFraction = 0.01;

struct AnalyzeState {
  std::string pack_path;
  std::string wal_dir;
  std::vector<std::string> names;
  std::vector<double> truth;
  int64_t rows = 0;
  int64_t pack_bytes = 0;
  std::unique_ptr<ndv::DurableCatalog> durable;
  std::unique_ptr<ndv::ConcurrentStatsCatalog> catalog;
};

// Builds the table, writes the pack and opens an empty durable catalog.
// Returns an empty optional (and records why) when a step fails.
std::optional<AnalyzeState> SetUp(const RunConfig& config,
                                  WorkloadResult& result) {
  AnalyzeState state;
  state.rows = config.tiny ? 20000 : 1000000;
  const auto n = static_cast<size_t>(state.rows);
  ndv::Rng rng(DeriveSeed(config.seed, 1));

  std::vector<int64_t> key(n);
  int64_t next = rng.NextInRange(0, 1 << 20);
  for (size_t i = 0; i < n; ++i) {
    key[i] = next;
    next += 1 + static_cast<int64_t>(rng.NextBounded(4));
  }
  std::vector<double> score(n);
  for (double& value : score) value = rng.NextDouble();
  std::vector<std::string> labels;
  for (int i = 0; i < 50; ++i) {
    char label[16];
    std::snprintf(label, sizeof label, "label-%02d", i);
    labels.push_back(label);
  }
  std::vector<int32_t> codes(n);
  for (int32_t& code : codes) code = static_cast<int32_t>(rng.NextBounded(50));

  ndv::ZipfColumnOptions item;
  item.rows = state.rows;
  item.z = 1.0;
  item.dup_factor = 10;
  item.layout = ndv::RowLayout::kRandom;
  item.seed = DeriveSeed(config.seed, 2);

  ndv::Table table;
  table.AddColumn("key", std::make_unique<ndv::Int64Column>(std::move(key)));
  table.AddColumn("score",
                  std::make_unique<ndv::DoubleColumn>(std::move(score)));
  table.AddColumn("label", std::make_unique<ndv::StringColumn>(
                               std::move(labels), std::move(codes)));
  table.AddColumn("item", ndv::MakeZipfColumn(item));
  for (int64_t c = 0; c < table.NumColumns(); ++c) {
    state.names.push_back(table.column_name(c));
    state.truth.push_back(
        static_cast<double>(ndv::ExactDistinctHashSet(table.column(c), 1)));
  }

  state.pack_path = config.work_dir + "/analyze.ndvpack";
  const ndv::Status written = ndv::WritePackFileV2(table, state.pack_path);
  if (!written.ok()) {
    result.FailOp("WritePackFileV2: " + written.ToString());
    return std::nullopt;
  }
  state.pack_bytes =
      static_cast<int64_t>(std::filesystem::file_size(state.pack_path));

  ndv::DurableCatalogOptions durable_options;
  state.wal_dir = config.work_dir + "/wal";
  durable_options.dir = state.wal_dir;
  durable_options.fsync = ndv::FsyncPolicy::kEveryRecord;
  std::filesystem::remove_all(durable_options.dir);
  auto durable = ndv::DurableCatalog::Open(durable_options);
  if (!durable.ok()) {
    result.FailOp("DurableCatalog::Open: " + durable.status().ToString());
    return std::nullopt;
  }
  state.durable = *std::move(durable);
  state.catalog = std::make_unique<ndv::ConcurrentStatsCatalog>();
  return state;
}

ndv::AnalyzeOptions OpOptions(const RunConfig& config, int64_t op) {
  ndv::AnalyzeOptions options;
  options.sample_fraction = kFraction;
  options.seed = DeriveSeed(config.seed, 100 + op % kSeedCycle);
  options.estimator = "AE";
  options.threads = 1;
  return options;
}

}  // namespace

ndv::StatsCatalog TracedAnalyzeTable(const ndv::Table& table,
                                     const ndv::AnalyzeOptions& options,
                                     const std::vector<std::string>& spans,
                                     Tracer& tracer, uint64_t op) {
  const auto estimator = ndv::MakeEstimatorByName(options.estimator);
  ndv::Rng root(options.seed);
  std::vector<ndv::Rng> rngs;
  for (int64_t c = 0; c < table.NumColumns(); ++c) rngs.push_back(root.Fork());
  ndv::StatsCatalog catalog;
  for (int64_t c = 0; c < table.NumColumns(); ++c) {
    const ndv::Column& column = table.column(c);
    const int64_t n = column.size();
    const int64_t r = std::clamp<int64_t>(
        std::llround(options.sample_fraction * static_cast<double>(n)), 1, n);
    std::vector<int64_t> rows;
    {
      Tracer::Scope span(&tracer, "sample.draw", op);
      rows = ndv::SampleWithoutReplacementFloyd(n, r,
                                                rngs[static_cast<size_t>(c)]);
    }
    ndv::SampleSummary sample;
    {
      Tracer::Scope span(&tracer, spans[static_cast<size_t>(c)].c_str(), op);
      sample = ndv::SummarizeRows(column, rows);
      sample.distinct_rows = true;
    }
    tracer.Count("table.rows_gathered", static_cast<int64_t>(rows.size()));
    tracer.Count("profile.sample_distinct", sample.d());
    tracer.Count("profile.f1", sample.f(1));
    ndv::ColumnStats stats;
    {
      Tracer::Scope span(&tracer, "core.estimate", op);
      const ndv::GeeBounds bounds = ndv::ComputeGeeBounds(sample);
      stats.estimate = estimator->Estimate(sample);
      stats.lower = bounds.lower;
      stats.upper = bounds.upper;
    }
    stats.column_name = table.column_name(c);
    stats.table_rows = sample.n();
    stats.sample_rows = sample.r();
    stats.sample_distinct = sample.d();
    stats.method = options.estimator;
    catalog.Put(std::move(stats));
  }
  return catalog;
}

namespace {

bool SameStats(const ndv::StatsCatalog& a, const ndv::StatsCatalog& b) {
  if (a.entries().size() != b.entries().size()) return false;
  for (size_t i = 0; i < a.entries().size(); ++i) {
    const ndv::ColumnStats& x = a.entries()[i];
    const ndv::ColumnStats& y = b.entries()[i];
    if (x.column_name != y.column_name || x.table_rows != y.table_rows ||
        x.sample_rows != y.sample_rows ||
        x.sample_distinct != y.sample_distinct || x.estimate != y.estimate ||
        x.lower != y.lower || x.upper != y.upper || x.method != y.method) {
      return false;
    }
  }
  return true;
}

// Op times are thread CPU times unless named wall_.
struct Phase {
  TimedOps ops;                      // untraced ops
  std::vector<double> traced_op_ms;  // traced ops (traced runs only)
  TimedOps refresh;                  // untraced ops
  std::vector<double> wall_op_ms;    // untraced ops, wall clock
  std::vector<double> wal_bytes;     // journal growth of each traced op
};

// Runs ops until `seconds` have passed and at least one seed cycle is done.
// With a tracer, seed cycles alternate between untraced and traced (the
// first is untraced, so references come from AnalyzeTable itself) and at
// least one of each runs.
Phase RunOps(const RunConfig& config, AnalyzeState& state, double seconds,
             Tracer* tracer, SpeedGauge& gauge,
             std::vector<std::optional<ndv::StatsCatalog>>& reference,
             QualityScore& quality, WorkloadResult& result) {
  std::vector<std::string> summarize_spans;
  for (const std::string& name : state.names) {
    summarize_spans.push_back("table.summarize." + name);
  }
  const int64_t min_ops = (tracer == nullptr ? 1 : 2) * kSeedCycle;
  Phase phase;
  const auto deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int64_t op = 0; op < min_ops || NowNs() < deadline; ++op) {
    Tracer* const traced = op / kSeedCycle % 2 == 1 ? tracer : nullptr;
    const auto id = static_cast<uint64_t>(op);
    const ndv::AnalyzeOptions options = OpOptions(config, op);
    ++result.attempted;
    gauge.Measure();
    Tracer::Scope op_span(traced, "analyze.op", id);
    const int64_t wall0 = NowNs();
    const int64_t t0 = ThreadCpuNs();
    ndv::StatusOr<ndv::Table> table = [&] {
      Tracer::Scope span(traced, "storage.load", id);
      return ndv::LoadTableAuto(state.pack_path);
    }();
    if (!table.ok()) {
      result.FailOp("LoadTableAuto: " + table.status().ToString());
      continue;
    }
    const int64_t t1 = ThreadCpuNs();
    ndv::StatsCatalog stats =
        traced == nullptr ? ndv::AnalyzeTable(*table, options)
                          : TracedAnalyzeTable(*table, options,
                                               summarize_spans, *traced, id);
    const int64_t wal_before =
        traced == nullptr ? 0 : DirectoryBytes(state.wal_dir);
    ndv::Status journaled = [&] {
      Tracer::Scope span(traced, "catalog.journal", id);
      return state.durable->AppendPublish(stats);
    }();
    if (!journaled.ok()) {
      result.FailOp("AppendPublish: " + journaled.ToString());
      continue;
    }
    if (traced != nullptr) {
      phase.wal_bytes.push_back(
          static_cast<double>(DirectoryBytes(state.wal_dir) - wal_before));
    }
    {
      Tracer::Scope span(traced, "catalog.publish", id);
      state.catalog->Publish(stats);
    }
    const int64_t t2 = ThreadCpuNs();
    const double op_ms = static_cast<double>(t2 - t0) * 1e-6;
    if (traced == nullptr) {
      phase.ops.Add(op_ms, gauge);
      phase.refresh.Add(static_cast<double>(t2 - t1) * 1e-6, gauge);
      phase.wall_op_ms.push_back(static_cast<double>(NowNs() - wall0) *
                                 1e-6);
    } else {
      phase.traced_op_ms.push_back(op_ms);
    }

    bool ok = stats.entries().size() == state.names.size();
    for (size_t c = 0; ok && c < state.names.size(); ++c) {
      const ndv::ColumnStats& column = stats.entries()[c];
      ok = column.column_name == state.names[c] &&
           column.lower <= column.upper && std::isfinite(column.estimate);
    }
    if (!ok) {
      result.FailCheck("op " + std::to_string(op) +
                       ": a column is missing or LOWER > UPPER");
      continue;
    }
    std::optional<ndv::StatsCatalog>& expected =
        reference[static_cast<size_t>(op % kSeedCycle)];
    if (!expected.has_value()) {
      for (size_t c = 0; c < state.names.size(); ++c) {
        quality.Score(stats.entries()[c], state.truth[c]);
      }
      expected = stats;
    }
    if (!SameStats(stats, *expected)) {
      result.FailCheck("op " + std::to_string(op) +
                       ": statistics differ from AnalyzeTable for the same "
                       "seed");
    }
  }
  return phase;
}

}  // namespace

WorkloadResult RunAnalyze(const RunConfig& config) {
  WorkloadResult result;
  std::optional<AnalyzeState> state;
  SpeedGauge gauge;
  const double setup_s = MedianSetupSeconds(gauge, [&] {
    state.reset();
    state = SetUp(config, result);
  });
  if (!state.has_value()) return result;

  std::vector<std::optional<ndv::StatsCatalog>> reference(kSeedCycle);
  QualityScore quality;
  Tracer* const tracer = config.trace ? &result.trace : nullptr;
  const Phase phase =
      RunOps(config, *state, config.seconds, tracer, gauge, reference,
             quality, result);
  result.counts = {
      {"ops", static_cast<int64_t>(phase.ops.ms.size() +
                                   phase.traced_op_ms.size())},
      {"traced_ops", static_cast<int64_t>(phase.traced_op_ms.size())},
      {"seed_cycle", kSeedCycle}};

  if (!config.trace) {
    const std::vector<double> op_ms = phase.ops.Reference(gauge);
    result.Add("setup_s", setup_s, "s");
    ReportOps(result, op_ms, static_cast<double>(op_ms.size()),
              std::accumulate(op_ms.begin(), op_ms.end(), 0.0) * 1e-3);
    result.Add("refresh_ms_p50",
               Percentile(phase.refresh.Reference(gauge), 50.0), "ms");
    result.extra.push_back(
        {"wall.analyze_ms_p50", Percentile(phase.wall_op_ms, 50.0), "ms"});
    result.extra.push_back({"speed_scale", gauge.MedianScale(), "ratio"});
    quality.Report(result);
    result.extra.push_back(
        {"pack_bytes_per_row",
         static_cast<double>(state->pack_bytes) /
             static_cast<double>(state->rows),
         "bytes"});
  } else {
    const auto ops = static_cast<int64_t>(phase.traced_op_ms.size());
    const double plain_p50 = Percentile(phase.ops.ms, 50.0);
    const double traced_p50 = Percentile(phase.traced_op_ms, 50.0);
    auto& layers = result.layers;
    layers["trace.overhead_pct"] = (traced_p50 / plain_p50 - 1.0) * 100.0;
    layers["storage.load_ms"] = tracer->SelfPer("storage.load", ops, 1e6);
    layers["storage.pack_bytes"] = static_cast<double>(state->pack_bytes);
    layers["sample.draw_ms"] = tracer->SelfPer("sample.draw", ops, 1e6);
    for (const std::string& name : state->names) {
      layers["table.summarize_ms." + name] =
          tracer->SelfPer("table.summarize." + name, ops, 1e6);
    }
    const auto per_op = [&](const char* counter) {
      return static_cast<double>(tracer->Counter(counter)) /
             static_cast<double>(ops);
    };
    layers["table.rows_gathered"] = per_op("table.rows_gathered");
    layers["profile.sample_distinct"] = per_op("profile.sample_distinct");
    layers["profile.f1"] = per_op("profile.f1");
    layers["core.estimate_us"] = tracer->SelfPer("core.estimate", ops, 1e3);
    layers["catalog.journal_ms"] =
        tracer->SelfPer("catalog.journal", ops, 1e6);
    // Median, not mean: a WAL compaction shrinks the directory.
    layers["catalog.wal_bytes_per_publish"] =
        Percentile(phase.wal_bytes, 50.0);
    layers["catalog.publish_us"] =
        tracer->SelfPer("catalog.publish", ops, 1e3);
    result.extra.push_back({"untraced.op_ms_p50", plain_p50, "ms"});
    result.extra.push_back({"traced.op_ms_p50", traced_p50, "ms"});
  }
  return result;
}

}  // namespace perfbench
