// ndv_cli — command-line front end for the library.
//
// Subcommands:
//   generate    synthesize a dataset and write it as CSV (or .ndvpack)
//   pack        convert a table to the ndvpack binary columnar format
//   estimate    sample one column of a table file and run estimators
//   analyze     build a statistics catalog for every column of a table file
//   distributed fault-tolerant coordinator/worker ANALYZE of one column
//   sketch      full-scan probabilistic counting over one column
//   lowerbound  evaluate the Theorem 1 bound for given n, r, gamma
//   serve       run the NDV stats service over a table (TCP, loopback)
//   query       query a running stats service (get | list | analyze)
//   ingest      replay an append stream through incremental maintenance
//
// Every --in file is auto-detected by content: files starting with the
// ndvpack magic open zero-copy by mmap, everything else parses as CSV.
//
// Examples:
//   ndv_cli generate --kind=zipf --rows=100000 --z=1 --dup=10 --out=data.csv
//   ndv_cli generate --kind=zipf --rows=100000 --out=data.ndvpack
//   ndv_cli pack --in=data.csv --out=data.ndvpack
//   ndv_cli pack --in=data.csv --out=data.ndvpack --codec=delta
//   ndv_cli estimate --in=data.csv --column=value --fraction=0.01
//   ndv_cli analyze --in=data.ndvpack --fraction=0.05 --out=stats.ndv
//   ndv_cli analyze --in=data.csv --threads=8   # or NDV_THREADS=8
//   ndv_cli analyze --in=data.csv --exact       # full-scan ground truth
//   ndv_cli distributed --in=data.ndvpack --column=value --partitions=8
//   ndv_cli distributed --in=data.csv --fail=0,3   # degraded interval demo
//   ndv_cli sketch --in=data.csv --column=value
//   ndv_cli lowerbound --n=1000000 --r=10000 --gamma=0.5
//   ndv_cli serve --in=data.ndvpack --port=7979
//   ndv_cli serve --in=data.csv --selftest   # in-process smoke, then exit
//   ndv_cli serve --in=data.csv --wal-dir=/var/ndv/catalog --selftest
//     # durable: journal publications, recover the catalog on restart
//   ndv_cli query --port=7979 --op=list
//   ndv_cli query --port=7979 --op=get --column=value
//   ndv_cli query --port=7979 --op=analyze --force
//   ndv_cli generate --kind=zipf --rows=10000 --seed=7 --append-to=data.csv
//     # append freshly generated rows onto an existing dataset
//   ndv_cli ingest --in=data.csv --append=batch.csv --batch-rows=1000
//     # replay batch.csv as an append stream: per-batch incremental
//     # publications, drift trigger, inline re-ANALYZE when it fires

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/concurrent_catalog.h"
#include "catalog/durable_catalog.h"
#include "catalog/stats_catalog.h"
#include "common/mutex.h"
#include "core/all_estimators.h"
#include "distributed/distributed_analyze.h"
#include "core/bootstrap_interval.h"
#include "core/gee.h"
#include "core/lower_bound.h"
#include "datagen/real_world_like.h"
#include "datagen/zipf.h"
#include "harness/report.h"
#include "ingest/maintenance.h"
#include "serve/socket_transport.h"
#include "serve/stats_service.h"
#include "sketch/exact_counter.h"
#include "storage/materialize.h"
#include "storage/ndvpack.h"
#include "storage/pack_codec.h"
#include "storage/pack_writer.h"
#include "storage/table_loader.h"
#include "table/column_sampling.h"
#include "table/csv.h"

namespace {

using Flags = std::map<std::string, std::string>;

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg] = "true";
    } else {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string GetFlag(const Flags& flags, const std::string& name,
                    const std::string& default_value) {
  const auto it = flags.find(name);
  return it == flags.end() ? default_value : it->second;
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(1);
}

// Parses the whole flag value as a T or fails: "abc" and "12abc" are
// errors, never an uncaught exception or a silently parsed prefix.
template <typename T>
T GetNumber(const Flags& flags, const std::string& name, T default_value) {
  const auto it = flags.find(name);
  if (it == flags.end()) return default_value;
  const std::string& text = it->second;
  const char* const end = text.data() + text.size();
  T value{};
  const auto parsed = std::from_chars(text.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end) {
    Fail("--" + name + " expects a number, got '" + text + "'");
  }
  return value;
}

double GetDouble(const Flags& flags, const std::string& name,
                 double default_value) {
  return GetNumber(flags, name, default_value);
}

int64_t GetInt(const Flags& flags, const std::string& name,
               int64_t default_value) {
  return GetNumber(flags, name, default_value);
}

// --fraction: a sampling fraction, which must lie in [0, 1].
double GetFraction(const Flags& flags, double default_value) {
  const double fraction = GetDouble(flags, "fraction", default_value);
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    Fail("--fraction must be in [0, 1], got '" +
         GetFlag(flags, "fraction", "") + "'");
  }
  return fraction;
}

// --estimator: must name an estimator MakeEstimatorByName knows.
std::string GetEstimator(const Flags& flags,
                         const std::string& default_value) {
  std::string name = GetFlag(flags, "estimator", default_value);
  if (ndv::MakeEstimatorByName(name) == nullptr) {
    Fail("unknown --estimator '" + name + "'");
  }
  return name;
}

// --codec=auto|raw|delta|dict selects the pack block codec policy for any
// command that writes an .ndvpack file; unknown names fail fast.
ndv::PackCodecChoice GetCodecFlag(const Flags& flags) {
  const std::string name = GetFlag(flags, "codec", "auto");
  ndv::PackCodecChoice codec = ndv::PackCodecChoice::kAutoCodec;
  if (!ndv::ParsePackCodecChoice(name, &codec)) {
    Fail("unknown --codec '" + name + "' (use auto|raw|delta|dict)");
  }
  return codec;
}

// Writes `table` as an ndvpack honoring --codec.
ndv::Status WritePackWithFlags(const ndv::Table& table,
                               const std::string& out_path,
                               const Flags& flags) {
  ndv::PackWriteOptions options;
  options.codec = GetCodecFlag(flags);
  return ndv::WritePackFileV2(table, out_path, options);
}

// Loads --in: .ndvpack images open zero-copy by mmap, anything else is
// read once into one string and parsed as CSV. All failures (missing
// file, malformed CSV, corrupt pack) arrive as a Status naming the path.
ndv::Table LoadTable(const std::string& path) {
  auto table = ndv::LoadTableAuto(path);
  if (!table.ok()) Fail(table.status().ToString());
  return std::move(table).value();
}

const ndv::Column& FindColumnOrDie(const ndv::Table& table,
                                   const std::string& name) {
  const int64_t index = table.FindColumn(name);
  if (index < 0) Fail("no column named '" + name + "'");
  return table.column(index);
}

// A .ndvpack extension selects the binary columnar format; everything
// else writes CSV (readers auto-detect by content either way).
bool IsPackPath(const std::string& path) {
  return path.size() >= 8 &&
         path.compare(path.size() - 8, 8, ".ndvpack") == 0;
}

void WriteTableByExtension(const ndv::Table& table,
                           const std::string& out_path, const Flags& flags) {
  if (IsPackPath(out_path)) {
    const ndv::Status status = WritePackWithFlags(table, out_path, flags);
    if (!status.ok()) Fail(status.ToString());
  } else {
    std::ofstream out(out_path);
    if (!out) Fail("cannot write " + out_path);
    ndv::WriteCsv(table, out);
  }
}

// --rows: the number of rows to generate, which must be >= 1.
int64_t GetRows(const Flags& flags, int64_t default_value) {
  const int64_t rows = GetInt(flags, "rows", default_value);
  if (rows < 1) Fail("--rows must be >= 1, got " + std::to_string(rows));
  return rows;
}

int CmdGenerate(const Flags& flags) {
  const std::string kind = GetFlag(flags, "kind", "zipf");
  const std::string out_path = GetFlag(flags, "out", "");
  const std::string append_to = GetFlag(flags, "append-to", "");
  if (out_path.empty() == append_to.empty()) {
    Fail("exactly one of --out or --append-to is required");
  }

  ndv::Table table;
  if (kind == "zipf") {
    ndv::ZipfColumnOptions options;
    options.rows = GetRows(flags, 100000);
    options.z = GetDouble(flags, "z", 1.0);
    options.dup_factor = GetInt(flags, "dup", 1);
    options.seed = static_cast<uint64_t>(GetInt(flags, "seed", 42));
    if (options.dup_factor < 1) {
      Fail("--dup must be >= 1, got " + std::to_string(options.dup_factor));
    }
    if (options.rows % options.dup_factor != 0) {
      Fail("--rows (" + std::to_string(options.rows) +
           ") must be a multiple of --dup (" +
           std::to_string(options.dup_factor) + ")");
    }
    table.AddColumn("value", ndv::MakeZipfColumn(options));
  } else if (kind == "census") {
    table = ndv::MakeCensusLikeScaled(GetRows(flags, 32561),
                                      static_cast<uint64_t>(GetInt(flags, "seed", 101)));
  } else if (kind == "covertype") {
    table = ndv::MakeCoverTypeLikeScaled(
        GetRows(flags, 581012),
        static_cast<uint64_t>(GetInt(flags, "seed", 202)));
  } else if (kind == "mssales") {
    table = ndv::MakeMSSalesLikeScaled(
        GetRows(flags, 1996290),
        static_cast<uint64_t>(GetInt(flags, "seed", 303)));
  } else {
    Fail("unknown --kind (use zipf|census|covertype|mssales)");
  }

  if (!append_to.empty()) {
    // --append-to: extend an existing dataset with the generated rows —
    // the producer side of an append stream (vary --seed between calls so
    // successive batches are not identical). The base's format is kept:
    // CSV stays CSV, ndvpack is rewritten as ndvpack.
    const ndv::Table base = LoadTable(append_to);
    auto combined = ndv::ConcatTables(base, table);
    if (!combined.ok()) Fail(combined.status().ToString());
    WriteTableByExtension(*combined, append_to, flags);
    std::printf("appended %lld rows to %s (%s, now %lld rows x %lld "
                "columns)\n",
                static_cast<long long>(table.NumRows()), append_to.c_str(),
                IsPackPath(append_to) ? "ndvpack" : "csv",
                static_cast<long long>(combined->NumRows()),
                static_cast<long long>(combined->NumColumns()));
    return 0;
  }

  WriteTableByExtension(table, out_path, flags);
  std::printf("wrote %lld rows x %lld columns to %s (%s)\n",
              static_cast<long long>(table.NumRows()),
              static_cast<long long>(table.NumColumns()), out_path.c_str(),
              IsPackPath(out_path) ? "ndvpack" : "csv");
  return 0;
}

int CmdPack(const Flags& flags) {
  const std::string in_path = GetFlag(flags, "in", "");
  const std::string out_path = GetFlag(flags, "out", "");
  if (in_path.empty()) Fail("--in is required");
  if (out_path.empty()) Fail("--out is required");

  const ndv::Table table = LoadTable(in_path);
  const ndv::Status status = WritePackWithFlags(table, out_path, flags);
  if (!status.ok()) Fail(status.ToString());

  // Re-open through the mmap path: proves the file round-trips before
  // anything downstream depends on it, and reports the packed size.
  auto reopened = ndv::OpenPackFile(out_path);
  if (!reopened.ok()) {
    Fail("verification reopen failed: " + reopened.status().ToString());
  }
  std::printf("packed %lld rows x %lld columns to %s\n",
              static_cast<long long>(reopened->NumRows()),
              static_cast<long long>(reopened->NumColumns()),
              out_path.c_str());
  for (int64_t c = 0; c < reopened->NumColumns(); ++c) {
    std::printf("  column '%s': %s\n", reopened->column_name(c).c_str(),
                std::string(ndv::ColumnTypeName(reopened->column(c).type()))
                    .c_str());
  }
  return 0;
}

int CmdEstimate(const Flags& flags) {
  const std::string in_path = GetFlag(flags, "in", "");
  if (in_path.empty()) Fail("--in is required");
  const double fraction = GetFraction(flags, 0.01);
  const ndv::Table table = LoadTable(in_path);
  const std::string column_name =
      GetFlag(flags, "column", table.column_name(0));
  const ndv::Column& column = FindColumnOrDie(table, column_name);
  if (column.size() == 0) {
    Fail("cannot estimate an empty column ('" + column_name +
         "' has 0 rows)");
  }
  const std::string which = GetFlag(flags, "estimator", "paper");
  const bool bootstrap = GetFlag(flags, "bootstrap", "false") == "true";

  ndv::Rng rng(static_cast<uint64_t>(GetInt(flags, "seed", 1)));
  const ndv::SampleSummary sample =
      ndv::SampleColumnFraction(column, fraction, rng);
  const ndv::GeeBounds bounds = ndv::ComputeGeeBounds(sample);

  std::printf("column '%s': n=%lld, sampled r=%lld, d=%lld, f1=%lld\n",
              column_name.c_str(), static_cast<long long>(sample.n()),
              static_cast<long long>(sample.r()),
              static_cast<long long>(sample.d()),
              static_cast<long long>(sample.f(1)));
  std::printf("GEE interval: [%.0f, %.0f]\n", bounds.lower, bounds.upper);

  std::vector<std::unique_ptr<ndv::Estimator>> estimators;
  if (which == "paper") {
    estimators = ndv::MakePaperComparisonEstimators();
  } else if (which == "all") {
    estimators = ndv::MakeAllEstimators();
  } else {
    auto one = ndv::MakeEstimatorByName(which);
    if (one == nullptr) Fail("unknown estimator '" + which + "'");
    estimators.push_back(std::move(one));
  }

  ndv::TextTable result(bootstrap
                            ? std::vector<std::string>{"estimator", "estimate",
                                                       "boot lower",
                                                       "boot upper"}
                            : std::vector<std::string>{"estimator",
                                                       "estimate"});
  for (const auto& estimator : estimators) {
    std::vector<std::string> row = {std::string(estimator->name()),
                                    ndv::FormatDouble(
                                        estimator->Estimate(sample), 1)};
    if (bootstrap) {
      ndv::BootstrapOptions boot;
      boot.replicates = GetInt(flags, "replicates", 200);
      const ndv::BootstrapInterval interval =
          ndv::ComputeBootstrapInterval(*estimator, sample, boot);
      row.push_back(ndv::FormatDouble(interval.lower, 1));
      row.push_back(ndv::FormatDouble(interval.upper, 1));
    }
    result.AddRow(std::move(row));
  }
  result.Print(std::cout);
  return 0;
}

int CmdAnalyze(const Flags& flags) {
  const std::string in_path = GetFlag(flags, "in", "");
  if (in_path.empty()) Fail("--in is required");
  ndv::AnalyzeOptions options;
  options.sample_fraction = GetFraction(flags, 0.01);
  options.estimator = GetEstimator(flags, "AE");
  options.seed = static_cast<uint64_t>(GetInt(flags, "seed", 1));
  // 0 = auto: DefaultThreadCount(), overridable via NDV_THREADS.
  options.threads = static_cast<int>(GetInt(flags, "threads", 0));
  // --exact: full-scan ground truth (parallel kernel) instead of sampling.
  options.exact = GetFlag(flags, "exact", "false") == "true";
  const ndv::Table table = LoadTable(in_path);
  const ndv::StatsCatalog catalog = ndv::AnalyzeTable(table, options);

  ndv::TextTable result({"column", "estimate", "LOWER", "UPPER", "sampled"});
  for (const ndv::ColumnStats& stats : catalog.entries()) {
    result.AddRow({stats.column_name, ndv::FormatDouble(stats.estimate, 1),
                   ndv::FormatDouble(stats.lower, 1),
                   ndv::FormatDouble(stats.upper, 1),
                   std::to_string(stats.sample_rows)});
  }
  result.Print(std::cout);

  const std::string out_path = GetFlag(flags, "out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) Fail("cannot write " + out_path);
    out << catalog.Serialize();
    std::printf("catalog written to %s\n", out_path.c_str());
  }
  return 0;
}

int CmdDistributed(const Flags& flags) {
  const std::string in_path = GetFlag(flags, "in", "");
  if (in_path.empty()) Fail("--in is required");
  const ndv::Table table = LoadTable(in_path);
  const std::string column_name =
      GetFlag(flags, "column", table.column_name(0));
  const ndv::Column& column = FindColumnOrDie(table, column_name);

  ndv::DistributedAnalyzeOptions options;
  options.partitions = static_cast<int>(GetInt(flags, "partitions", 8));
  options.sample_rows = GetInt(flags, "sample", 10000);
  options.estimator = GetFlag(flags, "estimator", "AE");
  options.seed = static_cast<uint64_t>(GetInt(flags, "seed", 1));
  options.threads = static_cast<int>(GetInt(flags, "threads", 0));
  options.max_attempts = static_cast<int>(GetInt(flags, "max-attempts", 3));

  // --wal-dir persists the finished result (degraded coverage included)
  // through the durable catalog's WAL before the coordinator reports it.
  std::unique_ptr<ndv::DurableCatalog> durable;
  const std::string wal_dir = GetFlag(flags, "wal-dir", "");
  if (!wal_dir.empty()) {
    ndv::DurableCatalogOptions durable_options;
    durable_options.dir = wal_dir;
    auto opened = ndv::DurableCatalog::Open(std::move(durable_options));
    if (!opened.ok()) Fail(opened.status().ToString());
    durable = std::move(*opened);
    options.durable = durable.get();
  }

  // --fail=0,3 permanently fails those partitions: a live demonstration of
  // graceful degradation. Injected faults run on a virtual clock so the
  // retry backoff costs no wall-clock time.
  ndv::FaultPlan faults;
  ndv::VirtualClock virtual_clock;
  const std::string fail_list = GetFlag(flags, "fail", "");
  if (!fail_list.empty()) {
    std::stringstream stream(fail_list);
    std::string token;
    while (std::getline(stream, token, ',')) {
      faults.Set(static_cast<int>(std::stoll(token)),
                 ndv::FaultSpec::FailAlways());
    }
    options.faults = &faults;
    options.clock = &virtual_clock;
  }

  const auto result =
      ndv::DistributedAnalyze(column, column_name, options);
  if (!result.ok()) Fail(result.status().ToString());

  ndv::TextTable outcome_table({"partition", "rows", "attempts", "state"});
  for (const ndv::PartitionOutcome& outcome : result->outcomes) {
    outcome_table.AddRow({std::to_string(outcome.partition),
                          std::to_string(outcome.rows),
                          std::to_string(outcome.attempts),
                          std::string(PartitionStateName(outcome.state))});
  }
  outcome_table.Print(std::cout);

  const ndv::ColumnStats& stats = result->stats;
  std::printf("\ncolumn '%s': %lld rows, %.1f%% scanned (%s)\n",
              stats.column_name.c_str(),
              static_cast<long long>(stats.table_rows),
              100.0 * stats.coverage,
              stats.degraded ? "DEGRADED" : "complete");
  std::printf("%s estimate = %.0f, interval [%.0f, %.0f]\n",
              stats.method.c_str(), stats.estimate, stats.lower, stats.upper);
  if (durable != nullptr) {
    std::printf("result journaled to %s (epoch %llu)\n", wal_dir.c_str(),
                static_cast<unsigned long long>(durable->epoch()));
  }
  return 0;
}

int CmdSketch(const Flags& flags) {
  const std::string in_path = GetFlag(flags, "in", "");
  if (in_path.empty()) Fail("--in is required");
  const ndv::Table table = LoadTable(in_path);
  const std::string column_name =
      GetFlag(flags, "column", table.column_name(0));
  const ndv::Column& column = FindColumnOrDie(table, column_name);

  // Hash the column once with the batch kernel; every counter then
  // consumes the same hash stream without per-row virtual dispatch.
  const std::vector<uint64_t> hashes = column.HashAll();
  ndv::TextTable result({"counter", "estimate", "memory (bytes)"});
  for (auto& counter : ndv::MakeAllDistinctCounters()) {
    counter->AddBatch(hashes);
    result.AddRow({std::string(counter->name()),
                   ndv::FormatDouble(counter->Estimate(), 1),
                   std::to_string(counter->MemoryBytes())});
  }
  result.Print(std::cout);
  return 0;
}

int CmdLowerBound(const Flags& flags) {
  const int64_t n = GetInt(flags, "n", 1000000);
  const int64_t r = GetInt(flags, "r", 10000);
  const double gamma = GetDouble(flags, "gamma", 0.5);
  std::printf("n=%lld r=%lld gamma=%.3f\n", static_cast<long long>(n),
              static_cast<long long>(r), gamma);
  std::printf("Theorem 1: any estimator errs by >= %.3f with probability "
              ">= %.3f on some input\n",
              ndv::TheoremOneErrorBound(n, r, gamma), gamma);
  std::printf("GEE guarantee (Theorem 2): expected error <= %.3f\n",
              ndv::GeeExpectedErrorBound(n, r));
  return 0;
}

void PrintStatsResult(const ndv::StatsClient::StatsResult& result) {
  const ndv::ColumnStats& stats = result.stats;
  std::printf("column '%s' @ epoch %llu%s\n", stats.column_name.c_str(),
              static_cast<unsigned long long>(result.epoch),
              result.stale ? " (STALE: re-ANALYZE recommended)" : "");
  std::printf("  %s estimate = %.1f, interval [%.1f, %.1f]\n",
              stats.method.c_str(), stats.estimate, stats.lower,
              stats.upper);
  std::printf("  table rows %lld, sampled %lld, sample distinct %lld\n",
              static_cast<long long>(stats.table_rows),
              static_cast<long long>(stats.sample_rows),
              static_cast<long long>(stats.sample_distinct));
}

// Exercises the full socket path against a service this process is
// serving: LIST, GET_STATS per column, and a forced ANALYZE that must
// advance the epoch. Returns 0 on success.
int RunServeSelftest(uint16_t port) {
  auto transport = ndv::ConnectSocket("127.0.0.1", port);
  if (!transport.ok()) Fail(transport.status().ToString());
  ndv::StatsClient client(**transport, {});

  const auto columns = client.List();
  if (!columns.ok()) Fail(columns.status().ToString());
  if (columns->empty()) Fail("selftest: service published no columns");
  for (const std::string& name : *columns) {
    const auto stats = client.GetStats(name);
    if (!stats.ok()) Fail(stats.status().ToString());
    PrintStatsResult(*stats);
  }
  const auto first = client.GetStats((*columns)[0]);
  if (!first.ok()) Fail(first.status().ToString());
  const auto analyzed = client.Analyze(/*force=*/true);
  if (!analyzed.ok()) Fail(analyzed.status().ToString());
  if (!analyzed->refreshed || analyzed->epoch <= first->epoch) {
    Fail("selftest: forced ANALYZE did not advance the epoch");
  }
  const auto missing = client.GetStats("__no_such_column__");
  if (missing.ok() ||
      missing.status().code() != ndv::StatusCode::kNotFound) {
    Fail("selftest: expected NotFound for an unknown column");
  }
  std::printf("selftest OK: %zu columns, epoch %llu -> %llu\n",
              columns->size(),
              static_cast<unsigned long long>(first->epoch),
              static_cast<unsigned long long>(analyzed->epoch));
  return 0;
}

int CmdServe(const Flags& flags) {
  const std::string in_path = GetFlag(flags, "in", "");
  if (in_path.empty()) Fail("--in is required");

  ndv::StatsServiceOptions options;
  options.analyze.sample_fraction = GetFraction(flags, 0.01);
  options.analyze.estimator = GetEstimator(flags, "AE");
  options.analyze.seed = static_cast<uint64_t>(GetInt(flags, "seed", 1));
  options.analyze.threads = static_cast<int>(GetInt(flags, "threads", 0));
  options.stale_changed_fraction =
      GetDouble(flags, "stale-fraction", 0.2);
  if (!std::isfinite(options.stale_changed_fraction) ||
      options.stale_changed_fraction <= 0.0) {
    Fail("--stale-fraction must be a finite number > 0, got '" +
         GetFlag(flags, "stale-fraction", "") + "'");
  }
  const int64_t max_inflight = GetInt(flags, "max-inflight", 256);
  if (max_inflight < 1 || max_inflight > std::numeric_limits<int>::max()) {
    Fail("--max-inflight must be >= 1 and fit an int, got " +
         std::to_string(max_inflight));
  }
  options.max_inflight = static_cast<int>(max_inflight);
  auto table = std::make_shared<ndv::Table>(LoadTable(in_path));

  // --wal-dir turns on durability: the service opens (and recovers) a
  // durable catalog there, journals every publication, and on restart
  // boots from the journal instead of re-scanning the table.
  std::unique_ptr<ndv::DurableCatalog> durable;
  const std::string wal_dir = GetFlag(flags, "wal-dir", "");
  if (!wal_dir.empty()) {
    ndv::DurableCatalogOptions durable_options;
    durable_options.dir = wal_dir;
    const std::string fsync = GetFlag(flags, "fsync", "every");
    if (fsync == "every") {
      durable_options.fsync = ndv::FsyncPolicy::kEveryRecord;
    } else if (fsync == "none") {
      durable_options.fsync = ndv::FsyncPolicy::kNone;
    } else {
      Fail("--fsync must be 'every' or 'none', got '" + fsync + "'");
    }
    durable_options.snapshot_every_records =
        GetInt(flags, "snapshot-every", 1024);
    auto opened = ndv::DurableCatalog::Open(std::move(durable_options));
    if (!opened.ok()) Fail(opened.status().ToString());
    durable = std::move(*opened);
    const ndv::RecoveryInfo& recovery = durable->recovery();
    std::printf(
        "durable catalog %s: recovered epoch %llu in %.3f ms (%lld snapshot "
        "entries%s, %lld WAL records replayed, %lld skipped, %lld torn "
        "bytes truncated)\n",
        wal_dir.c_str(), static_cast<unsigned long long>(recovery.epoch),
        recovery.boot_millis,
        static_cast<long long>(recovery.snapshot_entries),
        recovery.used_fallback_snapshot ? " via fallback snapshot" : "",
        static_cast<long long>(recovery.replayed_records),
        static_cast<long long>(recovery.skipped_records),
        static_cast<long long>(recovery.truncated_bytes));
    options.durable = durable.get();
  }
  ndv::StatsService service(std::move(table), options);

  const bool selftest = GetFlag(flags, "selftest", "false") == "true";
  // --selftest always uses an ephemeral port so parallel ctest runs of the
  // smoke test cannot collide.
  const uint16_t port = static_cast<uint16_t>(
      selftest ? 0 : GetInt(flags, "port", 7979));
  auto server = ndv::SocketServer::Listen(port);
  if (!server.ok()) Fail(server.status().ToString());
  std::printf("ndv stats service on 127.0.0.1:%u (%lld columns, epoch "
              "%llu)\n",
              static_cast<unsigned>((*server)->port()),
              static_cast<long long>(
                  service.Snapshot()->catalog.entries().size()),
              static_cast<unsigned long long>(service.epoch()));

  // Thread-per-connection accept loop; every connection shares the one
  // service, whose snapshot reads and admission gate do the coordination.
  ndv::Mutex workers_mutex;
  std::vector<std::thread> workers;
  const auto accept_loop = [&] {
    for (;;) {
      auto accepted = (*server)->Accept();
      if (!accepted.ok()) return;  // Shutdown (or a fatal accept error).
      std::shared_ptr<ndv::Transport> transport(std::move(*accepted));
      ndv::MutexLock lock(workers_mutex);
      workers.emplace_back([transport, &service] {
        ndv::ServeConnection(*transport, service);
      });
    }
  };

  if (!selftest) {
    accept_loop();  // Serves until the process is killed.
    return 0;
  }

  std::thread acceptor(accept_loop);
  const int result = RunServeSelftest((*server)->port());
  (*server)->Shutdown();
  acceptor.join();
  {
    ndv::MutexLock lock(workers_mutex);
    for (std::thread& worker : workers) worker.join();
  }
  return result;
}

int CmdQuery(const Flags& flags) {
  const std::string host = GetFlag(flags, "host", "127.0.0.1");
  const uint16_t port =
      static_cast<uint16_t>(GetInt(flags, "port", 7979));
  auto transport =
      ndv::ConnectSocket(host, port, GetInt(flags, "connect-timeout", 5000));
  if (!transport.ok()) Fail(transport.status().ToString());

  ndv::StatsClientOptions options;
  options.attempt_timeout_ms = GetInt(flags, "timeout", 2000);
  options.retry.max_attempts =
      static_cast<int>(GetInt(flags, "max-attempts", 3));
  ndv::StatsClient client(**transport, options);

  const std::string op = GetFlag(flags, "op", "list");
  if (op == "list") {
    const auto columns = client.List();
    if (!columns.ok()) Fail(columns.status().ToString());
    for (const std::string& name : *columns) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (op == "get") {
    const std::string column = GetFlag(flags, "column", "");
    if (column.empty()) Fail("--column is required for --op=get");
    const auto stats = client.GetStats(column);
    if (!stats.ok()) Fail(stats.status().ToString());
    PrintStatsResult(*stats);
    return 0;
  }
  if (op == "analyze") {
    const bool force = GetFlag(flags, "force", "false") == "true";
    const auto result = client.Analyze(force);
    if (!result.ok()) Fail(result.status().ToString());
    if (result->refreshed) {
      std::printf("re-analyzed %lld columns; now at epoch %llu\n",
                  static_cast<long long>(result->analyzed_columns),
                  static_cast<unsigned long long>(result->epoch));
    } else {
      std::printf("statistics fresh at epoch %llu (cache hit, nothing "
                  "stale)\n",
                  static_cast<unsigned long long>(result->epoch));
    }
    return 0;
  }
  Fail("unknown --op '" + op + "' (use list|get|analyze)");
}

// Replays --append as an append stream over --in through the incremental
// maintenance subsystem: every --batch-rows rows updates each column's
// tracker in O(batch) and publishes a refreshed estimate + GEE interval as
// a new catalog epoch; when the sketch drift of the reported column escapes
// the interval published by the last full re-ANALYZE, the drift trigger
// fires and a full re-ANALYZE over base + appended-so-far runs inline
// (deterministic single-process mode) and resets the baseline.
int CmdIngest(const Flags& flags) {
  const std::string in_path = GetFlag(flags, "in", "");
  const std::string append_path = GetFlag(flags, "append", "");
  if (in_path.empty()) Fail("--in is required");
  if (append_path.empty()) Fail("--append is required");
  const int64_t batch_rows = GetInt(flags, "batch-rows", 1000);
  if (batch_rows < 1) Fail("--batch-rows must be >= 1");
  const int64_t reservoir = GetInt(flags, "reservoir", 4096);
  if (reservoir < 1) {
    Fail("--reservoir must be >= 1, got " + std::to_string(reservoir));
  }
  ndv::AnalyzeOptions analyze;
  analyze.sample_fraction = GetFraction(flags, 0.05);
  analyze.estimator = GetEstimator(flags, "GEE");
  analyze.seed = static_cast<uint64_t>(GetInt(flags, "seed", 1));
  analyze.threads = static_cast<int>(GetInt(flags, "threads", 0));

  const ndv::Table base = LoadTable(in_path);
  const ndv::Table append = LoadTable(append_path);
  for (int64_t c = 0; c < base.NumColumns(); ++c) {
    if (append.FindColumn(base.column_name(c)) < 0) {
      Fail("--append has no column '" + base.column_name(c) + "'");
    }
  }

  // The initial full ANALYZE of the base table is epoch 1 and every
  // column's drift baseline.
  ndv::ConcurrentStatsCatalog catalog(ndv::AnalyzeTable(base, analyze));

  // The re-ANALYZE callback rebuilds the logical current table — base plus
  // the append prefix observed so far — and scans it afresh.
  int64_t appended_rows = 0;
  const auto reanalyze = [&]() -> ndv::StatusOr<ndv::StatsCatalog> {
    ndv::Table prefix;
    for (int64_t c = 0; c < append.NumColumns(); ++c) {
      auto column =
          ndv::MaterializeColumnSlice(append.column(c), 0, appended_rows);
      if (!column.ok()) return column.status();
      prefix.AddColumn(append.column_name(c), *std::move(column));
    }
    auto combined = ndv::ConcatTables(base, prefix);
    if (!combined.ok()) return combined.status();
    return ndv::AnalyzeTable(*combined, analyze);
  };

  ndv::StatsMaintainerOptions options;
  options.tracker.reservoir_capacity = reservoir;
  options.tracker.seed = analyze.seed;
  options.estimator = analyze.estimator;
  options.background = false;  // inline re-ANALYZE: deterministic output
  ndv::StatsMaintainer maintainer(&catalog, reanalyze, options);
  for (int64_t c = 0; c < base.NumColumns(); ++c) {
    maintainer.Track(base.column_name(c),
                     ndv::FullColumnSlice(base.column(c)));
  }

  const std::string report = GetFlag(flags, "column", base.column_name(0));
  if (base.FindColumn(report) < 0) Fail("no column named '" + report + "'");

  ndv::TextTable progress({"appended", "epoch", "estimate", "LOWER",
                           "UPPER", "drift", "tolerance", "re-analyzes"});
  for (int64_t begin = 0; begin < append.NumRows(); begin += batch_rows) {
    const int64_t end = std::min(begin + batch_rows, append.NumRows());
    // Advance the append cursor first so a drift-fired re-ANALYZE inside
    // Append covers the whole batch.
    appended_rows = end;
    for (int64_t c = 0; c < base.NumColumns(); ++c) {
      const std::string& name = base.column_name(c);
      const ndv::Column& column =
          append.column(append.FindColumn(name));
      maintainer.Append(name, ndv::ColumnSlice{&column, begin, end});
    }
    const auto published = catalog.Find(report);
    if (!published.has_value()) Fail("published entry vanished");
    progress.AddRow({std::to_string(end),
                     std::to_string(catalog.epoch()),
                     ndv::FormatDouble(published->estimate, 1),
                     ndv::FormatDouble(published->lower, 1),
                     ndv::FormatDouble(published->upper, 1),
                     ndv::FormatDouble(maintainer.Drift(report), 1),
                     ndv::FormatDouble(maintainer.Tolerance(report), 1),
                     std::to_string(maintainer.counters().reanalyzes)});
  }
  progress.Print(std::cout);

  const ndv::Status reanalyze_status = maintainer.last_reanalyze_status();
  if (!reanalyze_status.ok()) Fail(reanalyze_status.ToString());
  const ndv::MaintainerCounters counters = maintainer.counters();
  std::printf("\nappended %lld rows in %lld batches: %lld incremental "
              "publications, %lld drift fires, %lld full re-analyzes "
              "(final epoch %llu)\n",
              static_cast<long long>(counters.rows_appended),
              static_cast<long long>(counters.appends),
              static_cast<long long>(counters.publications),
              static_cast<long long>(counters.drift_fires),
              static_cast<long long>(counters.reanalyzes),
              static_cast<unsigned long long>(catalog.epoch()));
  return 0;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: ndv_cli "
               "<generate|pack|estimate|analyze|distributed|sketch|"
               "lowerbound|serve|query|ingest> "
               "[--flag=value ...]\nsee the header of tools/ndv_cli.cc for "
               "examples\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags = ParseFlags(argc, argv, 2);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "pack") return CmdPack(flags);
  if (command == "estimate") return CmdEstimate(flags);
  if (command == "analyze") return CmdAnalyze(flags);
  if (command == "distributed") return CmdDistributed(flags);
  if (command == "sketch") return CmdSketch(flags);
  if (command == "lowerbound") return CmdLowerBound(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "ingest") return CmdIngest(flags);
  PrintUsage();
  return 2;
}
