// Microbenchmarks: the two serving costs perfbench `serve` cannot see
// (DESIGN.md §13, §14). perfbench times GET_STATS end to end over a
// loopback socket; these cases take the transport away.
//
//   BM_SubmitGetStats          one GET_STATS through StatsService::Submit
//                              (admission control, catalog snapshot read,
//                              reply build), no frame codec, no socket.
//   BM_RecoveryBoot/<records>  DurableCatalog::Open over a journal of
//                              <records> ANALYZE publications, the boot a
//                              restarted `ndv_cli serve --wal-dir` pays.
//
//   ./build/bench/micro_serving --benchmark_format=json

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include <benchmark/benchmark.h>

#include "catalog/durable_catalog.h"
#include "catalog/stats_catalog.h"
#include "common/check.h"
#include "datagen/zipf.h"
#include "serve/protocol.h"
#include "serve/stats_service.h"
#include "table/table.h"

namespace {

// A 100k-row Zipf column (z=1, dup 10), built once per process.
const std::shared_ptr<const ndv::Table>& ZipfTable() {
  static const std::shared_ptr<const ndv::Table> table = [] {
    ndv::ZipfColumnOptions column_options;
    column_options.rows = 100000;
    column_options.z = 1.0;
    column_options.dup_factor = 10;
    ndv::Table zipf;
    zipf.AddColumn("value", ndv::MakeZipfColumn(column_options));
    return std::make_shared<const ndv::Table>(std::move(zipf));
  }();
  return table;
}

ndv::AnalyzeOptions SampledAnalyze() {
  ndv::AnalyzeOptions analyze;
  analyze.sample_fraction = 0.01;
  analyze.threads = 1;
  return analyze;
}

void BM_SubmitGetStats(benchmark::State& state) {
  ndv::StatsServiceOptions options;
  options.analyze = SampledAnalyze();
  ndv::StatsService service(ZipfTable(), options);
  ndv::Message request;
  request.type = ndv::MessageType::kGetStats;
  request.column = "value";
  for (auto _ : state) {
    const ndv::Message reply = service.Submit(request);
    if (reply.type != ndv::MessageType::kStatsReply) {
      state.SkipWithError("GET_STATS was not answered with a STATS reply");
      break;
    }
    benchmark::DoNotOptimize(reply);
  }
}
BENCHMARK(BM_SubmitGetStats);

// A fresh mkdtemp directory, removed with its contents on scope exit.
class TempDir {
 public:
  TempDir() {
    const char* tmpdir = std::getenv("TMPDIR");
    path_ = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
            "/ndv_micro_serving_XXXXXX";
    NDV_CHECK(::mkdtemp(path_.data()) != nullptr);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() { std::filesystem::remove_all(path_); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The journal compacts every kSnapshotEvery records, the durable catalog's
// default. Fewer records boot from the WAL alone; more boot from the newest
// snapshot plus the WAL tail written after it.
constexpr int64_t kSnapshotEvery = 1024;

void BM_RecoveryBoot(benchmark::State& state) {
  const int64_t records = state.range(0);
  const TempDir dir;
  const ndv::DurableCatalogOptions options = {
      .dir = dir.path(), .snapshot_every_records = kSnapshotEvery};
  {
    auto writer = ndv::DurableCatalog::Open(options);
    NDV_CHECK(writer.ok());
    const ndv::StatsCatalog catalog =
        ndv::AnalyzeTable(*ZipfTable(), SampledAnalyze());
    for (int64_t i = 0; i < records; ++i) {
      NDV_CHECK((*writer)->AppendPublish(catalog).ok());
    }
  }
  ndv::RecoveryInfo recovery;
  for (auto _ : state) {
    auto recovered = ndv::DurableCatalog::Open(options);
    if (!recovered.ok() ||
        (*recovered)->recovery().epoch != static_cast<uint64_t>(records)) {
      state.SkipWithError("recovery did not reach the journaled epoch");
      break;
    }
    recovery = (*recovered)->recovery();
  }
  state.counters["replayed_records"] =
      static_cast<double>(recovery.replayed_records);
  state.counters["skipped_records"] =
      static_cast<double>(recovery.skipped_records);
}
BENCHMARK(BM_RecoveryBoot)->Arg(256)->Arg(1280)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
