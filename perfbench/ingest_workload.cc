// Workload `ingest`: StatsMaintainer (background=false, deterministic)
// over a 1M-row, 2-column heap base table, fed a stream of 1000-row append
// batches whose true distinct counts are known by construction:
//   low   10,000 distinct in the base; each batch is 50% novel values
//   high  900,000 distinct in the base; each batch is 90% novel values
// One op appends one 1000-row batch of the stream to the table: Append to
// each column until the returned epoch is visible in Snapshot(). The two
// columns' appends cost different amounts, so timing them apart would give
// a two-humped distribution whose median jumps between the humps. An op is
// timed in thread CPU time and reported in reference time, with a gauge
// reading every kGaugeEvery ops (bench.h, SpeedGauge). The drift-fired
// re-ANALYZE callback does what `ndv_cli ingest` does:
// MaterializeColumnSlice + ConcatTables + AnalyzeTable. A pass replays the
// whole stream into a fresh maintainer; passes repeat until the run's time
// is up. Every pass must publish the same counts as the first, which is
// also the one scored for quality.
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "catalog/concurrent_catalog.h"
#include "common/random.h"
#include "ingest/maintenance.h"
#include "storage/materialize.h"

namespace perfbench {
namespace {

constexpr int64_t kBatchRows = 1000;
constexpr int64_t kGaugeEvery = 512;

struct StreamColumn {
  std::string name;
  std::unique_ptr<ndv::Int64Column> stream;
  double base_truth = 0.0;
  int64_t novel_per_batch = 0;
};

struct IngestState {
  ndv::Table base;
  std::vector<StreamColumn> columns;
  int64_t batches = 0;
  ndv::AnalyzeOptions analyze;
  ndv::StatsCatalog initial;
};

// A stream of `batches` batches, each with `novel` never-seen values (ids
// from `distinct` up) and repeats of values already present, shuffled.
std::unique_ptr<ndv::Int64Column> MakeStream(int64_t distinct, int64_t novel,
                                             int64_t batches, ndv::Rng& rng) {
  std::vector<int64_t> values;
  values.reserve(static_cast<size_t>(batches * kBatchRows));
  std::vector<int64_t> batch(static_cast<size_t>(kBatchRows));
  for (int64_t b = 0; b < batches; ++b) {
    for (int64_t j = 0; j < kBatchRows; ++j) {
      batch[static_cast<size_t>(j)] =
          j < novel ? distinct + j
                    : static_cast<int64_t>(
                          rng.NextBounded(static_cast<uint64_t>(distinct)));
    }
    rng.Shuffle(batch);
    values.insert(values.end(), batch.begin(), batch.end());
    distinct += novel;
  }
  return std::make_unique<ndv::Int64Column>(std::move(values));
}

IngestState SetUp(const RunConfig& config) {
  IngestState state;
  const int64_t rows = config.tiny ? 20000 : 1000000;
  state.batches = config.tiny ? 50 : 2000;
  ndv::Rng rng(DeriveSeed(config.seed, 40));

  // low: `low_distinct` values, each on every low_distinct-th row; a stride
  // coprime to the modulus scatters equal values across the table.
  const int64_t low_distinct = config.tiny ? 1000 : 10000;
  std::vector<int64_t> low(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    low[static_cast<size_t>(i)] = (i * 7919) % low_distinct;
  }
  // high: 90% of rows carry a distinct id, the rest repeat one; shuffled.
  const int64_t high_distinct = rows / 10 * 9;
  std::vector<int64_t> high(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    high[static_cast<size_t>(i)] =
        i < high_distinct
            ? i
            : static_cast<int64_t>(
                  rng.NextBounded(static_cast<uint64_t>(high_distinct)));
  }
  rng.Shuffle(high);
  state.base.AddColumn("low",
                       std::make_unique<ndv::Int64Column>(std::move(low)));
  state.base.AddColumn("high",
                       std::make_unique<ndv::Int64Column>(std::move(high)));

  state.columns.push_back({"low", MakeStream(low_distinct, 500, state.batches,
                                             rng),
                           static_cast<double>(low_distinct), 500});
  state.columns.push_back({"high",
                           MakeStream(high_distinct, 900, state.batches, rng),
                           static_cast<double>(high_distinct), 900});

  // `ndv_cli ingest` defaults, on one thread.
  state.analyze.sample_fraction = 0.05;
  state.analyze.estimator = "GEE";
  state.analyze.seed = DeriveSeed(config.seed, 41);
  state.analyze.threads = 1;
  state.initial = ndv::AnalyzeTable(state.base, state.analyze);
  return state;
}

// Op times are thread CPU times unless named wall_.
struct PassLog {
  TimedOps ops;
  TimedOps refresh;  // ops that ran a re-ANALYZE
  ndv::MaintainerCounters counters;
  double wall_seconds = 0.0;
};

// Replays the whole stream into a fresh maintainer.
PassLog RunPass(const RunConfig& config, IngestState& state, uint64_t pass,
                Tracer* tracer, SpeedGauge& gauge, QualityScore* quality,
                WorkloadResult& result) {
  ndv::ConcurrentStatsCatalog catalog(state.initial);
  int64_t appended = 0;
  uint64_t op = 0;
  bool fired = false;
  std::vector<std::string> summarize_spans;
  for (const StreamColumn& column : state.columns) {
    summarize_spans.push_back("table.summarize." + column.name);
  }
  const auto reanalyze = [&]() -> ndv::StatusOr<ndv::StatsCatalog> {
    fired = true;
    Tracer::Scope span(tracer, "ingest.reanalyze", op);
    ndv::StatusOr<ndv::Table> table = [&]() -> ndv::StatusOr<ndv::Table> {
      Tracer::Scope materialize(tracer, "storage.materialize", op);
      ndv::Table prefix;
      for (const StreamColumn& column : state.columns) {
        auto slice = ndv::MaterializeColumnSlice(*column.stream, 0, appended);
        if (!slice.ok()) return slice.status();
        prefix.AddColumn(column.name, *std::move(slice));
      }
      return ndv::ConcatTables(state.base, prefix);
    }();
    if (!table.ok()) return table.status();
    if (tracer == nullptr) return ndv::AnalyzeTable(*table, state.analyze);
    return TracedAnalyzeTable(*table, state.analyze, summarize_spans, *tracer,
                              op);
  };

  ndv::StatsMaintainerOptions options;
  options.tracker.seed = DeriveSeed(config.seed, 42);
  options.estimator = state.analyze.estimator;
  options.background = false;
  ndv::StatsMaintainer maintainer(&catalog, reanalyze, options);
  for (int64_t c = 0; c < state.base.NumColumns(); ++c) {
    maintainer.Track(state.base.column_name(c),
                     ndv::FullColumnSlice(state.base.column(c)));
  }

  PassLog log;
  uint64_t last_epoch = catalog.epoch();
  // What each column's Append returned and saw, checked after the op.
  std::vector<std::pair<uint64_t, decltype(catalog.Snapshot())>> seen;
  seen.reserve(state.columns.size());
  const int64_t start = NowNs();
  for (int64_t b = 0; b < state.batches; ++b) {
    // Advance the cursor first so a re-ANALYZE fired inside this batch's
    // appends covers the whole batch, as `ndv_cli ingest` does.
    appended = (b + 1) * kBatchRows;
    if (b % kGaugeEvery == 0) gauge.Measure();
    fired = false;
    seen.clear();
    const int64_t t0 = ThreadCpuNs();
    for (size_t c = 0; c < state.columns.size(); ++c) {
      const StreamColumn& column = state.columns[c];
      op = pass << 32 | (static_cast<uint64_t>(b) * state.columns.size() + c);
      ++result.attempted;
      uint64_t epoch = 0;
      {
        Tracer::Scope span(tracer, "ingest.append", op);
        epoch = maintainer.Append(
            column.name,
            ndv::ColumnSlice{column.stream.get(), b * kBatchRows, appended});
      }
      seen.emplace_back(epoch, catalog.Snapshot());
    }
    const int64_t t1 = ThreadCpuNs();
    const double op_ms = static_cast<double>(t1 - t0) * 1e-6;
    log.ops.Add(op_ms, gauge);
    if (fired) log.refresh.Add(op_ms, gauge);
    for (size_t c = 0; c < state.columns.size(); ++c) {
      const StreamColumn& column = state.columns[c];
      const auto& [epoch, snapshot] = seen[c];
      if (snapshot->epoch < epoch || epoch <= last_epoch) {
        result.FailCheck("append epoch " + std::to_string(epoch) +
                         " is not visible or did not increase");
      }
      last_epoch = epoch;
      const auto stats = snapshot->catalog.Find(column.name);
      if (!stats.has_value() || !(stats->lower <= stats->upper)) {
        result.FailCheck("column " + column.name +
                         " is unpublished or LOWER > UPPER");
      } else if (quality != nullptr) {
        quality->Score(*stats,
                       column.base_truth + static_cast<double>(
                                               (b + 1) *
                                               column.novel_per_batch));
      }
    }
  }
  log.wall_seconds = static_cast<double>(NowNs() - start) * 1e-9;
  log.counters = maintainer.counters();
  const ndv::Status status = maintainer.last_reanalyze_status();
  if (!status.ok()) result.FailOp("re-ANALYZE: " + status.ToString());
  return log;
}

struct PhaseLog {
  TimedOps ops;                      // ops of untraced passes
  std::vector<double> traced_op_ms;  // ops of traced passes
  // Per untraced pass, the ops that ran a re-ANALYZE. Every pass fires the
  // same few re-ANALYZEs on tables of different sizes, so a median over
  // them all would jump between sizes; a median of pass means does not.
  std::vector<TimedOps> refresh;
  double wall_seconds = 0.0;         // untraced passes' append loops
  int64_t passes = 0;
  ndv::MaintainerCounters first;     // the first pass's counts
};

bool SameCounters(const ndv::MaintainerCounters& a,
                  const ndv::MaintainerCounters& b) {
  return a.appends == b.appends && a.rows_appended == b.rows_appended &&
         a.publications == b.publications && a.drift_fires == b.drift_fires &&
         a.reanalyzes == b.reanalyzes &&
         a.reanalyze_failures == b.reanalyze_failures;
}

// Whole passes until `seconds` have passed (at least one). With a tracer,
// passes alternate between untraced and traced, starting untraced, and at
// least one of each runs. The first pass is scored for quality; every
// later pass must publish the same counts.
PhaseLog RunPasses(const RunConfig& config, IngestState& state,
                   Tracer* tracer, SpeedGauge& gauge, QualityScore& quality,
                   WorkloadResult& result) {
  PhaseLog phase;
  const int64_t min_passes = tracer == nullptr ? 1 : 2;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  for (uint64_t pass = 0;
       static_cast<int64_t>(pass) < min_passes || NowNs() < deadline;
       ++pass) {
    Tracer* const traced = pass % 2 == 1 ? tracer : nullptr;
    PassLog log = RunPass(config, state, pass, traced, gauge,
                          pass == 0 ? &quality : nullptr, result);
    if (pass == 0) {
      phase.first = log.counters;
    } else if (!SameCounters(phase.first, log.counters)) {
      result.FailCheck("pass " + std::to_string(pass) +
                       " published different counts than the first pass");
    }
    if (traced == nullptr) {
      phase.ops.ms.insert(phase.ops.ms.end(), log.ops.ms.begin(),
                          log.ops.ms.end());
      phase.ops.reading.insert(phase.ops.reading.end(),
                               log.ops.reading.begin(),
                               log.ops.reading.end());
      if (!log.refresh.ms.empty()) phase.refresh.push_back(log.refresh);
      phase.wall_seconds += log.wall_seconds;
    } else {
      phase.traced_op_ms.insert(phase.traced_op_ms.end(),
                                log.ops.ms.begin(), log.ops.ms.end());
    }
    ++phase.passes;
  }
  return phase;
}

}  // namespace

WorkloadResult RunIngest(const RunConfig& config) {
  WorkloadResult result;
  std::optional<IngestState> state;
  SpeedGauge gauge;
  const double setup_s = MedianSetupSeconds(gauge, [&] {
    state.reset();
    state = SetUp(config);
  });

  QualityScore quality;
  Tracer* const tracer = config.trace ? &result.trace : nullptr;
  const PhaseLog phase =
      RunPasses(config, *state, tracer, gauge, quality, result);
  const ndv::MaintainerCounters& first = phase.first;
  result.counts = {{"passes", phase.passes},
                   {"appends_per_pass", first.appends},
                   {"drift_fires_per_pass", first.drift_fires},
                   {"reanalyzes_per_pass", first.reanalyzes},
                   {"publications_per_pass", first.publications}};
  if (!config.trace) {
    result.Add("setup_s", setup_s, "s");
    const std::vector<double> op_ms = phase.ops.Reference(gauge);
    const auto ops = static_cast<double>(op_ms.size());
    ReportOps(result, op_ms, ops,
              std::accumulate(op_ms.begin(), op_ms.end(), 0.0) * 1e-3);
    std::vector<double> refresh_ms;
    for (const TimedOps& pass : phase.refresh) {
      const std::vector<double> ms = pass.Reference(gauge);
      refresh_ms.push_back(std::accumulate(ms.begin(), ms.end(), 0.0) /
                           static_cast<double>(ms.size()));
    }
    result.Add("refresh_ms_p50", Percentile(refresh_ms, 50.0), "ms");
    result.extra.push_back({"wall.ingest_rows_per_s",
                            ops * kBatchRows / phase.wall_seconds, "rows/s"});
    result.extra.push_back({"speed_scale", gauge.MedianScale(), "ratio"});
    quality.Report(result);
  } else {
    const double plain_p50 = Percentile(phase.ops.ms, 50.0);
    const double traced_p50 = Percentile(phase.traced_op_ms, 50.0);
    const int64_t appends = tracer->Get("ingest.append").calls;
    const int64_t reanalyzes = tracer->Get("ingest.reanalyze").calls;
    auto& layers = result.layers;
    layers["trace.overhead_pct"] = (traced_p50 / plain_p50 - 1.0) * 100.0;
    layers["ingest.append_self_us"] =
        tracer->SelfPer("ingest.append", appends, 1e3);
    layers["ingest.reanalyze_ms"] =
        reanalyzes > 0 ? static_cast<double>(
                             tracer->Get("ingest.reanalyze").total_ns) /
                             static_cast<double>(reanalyzes) / 1e6
                       : 0.0;
    layers["storage.materialize_ms"] =
        tracer->SelfPer("storage.materialize", reanalyzes, 1e6);
    layers["sample.draw_ms"] = tracer->SelfPer("sample.draw", reanalyzes, 1e6);
    const auto per_reanalyze = [&](const char* counter) {
      return reanalyzes > 0 ? static_cast<double>(tracer->Counter(counter)) /
                                  static_cast<double>(reanalyzes)
                            : 0.0;
    };
    layers["table.rows_gathered"] = per_reanalyze("table.rows_gathered");
    layers["profile.sample_distinct"] =
        per_reanalyze("profile.sample_distinct");
    layers["profile.f1"] = per_reanalyze("profile.f1");
    layers["core.estimate_us"] =
        tracer->SelfPer("core.estimate", reanalyzes, 1e3);
    // Per pass; every pass publishes the same counts (checked).
    layers["ingest.drift_fires"] = static_cast<double>(first.drift_fires);
    layers["ingest.reanalyzes"] = static_cast<double>(first.reanalyzes);
    layers["ingest.reanalyze_failures"] =
        static_cast<double>(first.reanalyze_failures);
    layers["ingest.publications"] = static_cast<double>(first.publications);
    layers["ingest.useful_reanalyze_share"] =
        first.drift_fires > 0 ? static_cast<double>(first.reanalyzes) /
                                     static_cast<double>(first.drift_fires)
                               : 0.0;
    layers["ingest.useful_publication_share"] =
        quality.scored() > 0 ? static_cast<double>(quality.hits()) /
                                   static_cast<double>(quality.scored())
                             : 0.0;
    result.extra.push_back({"untraced.append_us_p50", plain_p50 * 1e3, "us"});
    result.extra.push_back({"traced.append_us_p50", traced_p50 * 1e3, "us"});
  }
  return result;
}

}  // namespace perfbench
