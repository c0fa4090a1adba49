// Microbenchmarks: full-scan probabilistic counters — ingest throughput and
// estimate cost. The scan cost is what makes sketches infeasible for ad-hoc
// statistics on very large tables (the paper's Section 1 argument). The
// BM_Tracker* pair splits one append of the ingest path: feeding a batch
// to an IncrementalStats tracker, and reading the Snapshot it publishes.

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/all_estimators.h"
#include "ingest/incremental_stats.h"
#include "sketch/exact_counter.h"
#include "sketch/flajolet_martin.h"
#include "sketch/hyperloglog.h"
#include "sketch/linear_counting.h"

namespace {

std::vector<uint64_t> MakeStream(int64_t size, int64_t distinct) {
  std::vector<uint64_t> stream;
  stream.reserve(static_cast<size_t>(size));
  ndv::Rng rng(11);
  for (int64_t i = 0; i < size; ++i) {
    stream.push_back(ndv::Hash64(rng.NextBounded(
        static_cast<uint64_t>(distinct))));
  }
  return stream;
}

constexpr int64_t kStream = 1000000;
constexpr int64_t kDistinct = 50000;

template <typename Counter, typename... Args>
void IngestBench(benchmark::State& state, Args... args) {
  const auto stream = MakeStream(kStream, kDistinct);
  for (auto _ : state) {
    Counter counter(args...);
    for (uint64_t h : stream) counter.Add(h);
    benchmark::DoNotOptimize(counter.Estimate());
  }
  state.SetItemsProcessed(state.iterations() * kStream);
}

void BM_ExactCounter(benchmark::State& state) {
  const auto stream = MakeStream(kStream, kDistinct);
  for (auto _ : state) {
    ndv::ExactCounter counter;
    for (uint64_t h : stream) counter.Add(h);
    benchmark::DoNotOptimize(counter.Estimate());
  }
  state.SetItemsProcessed(state.iterations() * kStream);
}
BENCHMARK(BM_ExactCounter);

void BM_LinearCounting(benchmark::State& state) {
  IngestBench<ndv::LinearCounting>(state, int64_t{1} << 20);
}
BENCHMARK(BM_LinearCounting);

void BM_FlajoletMartin(benchmark::State& state) {
  IngestBench<ndv::FlajoletMartin>(state, int64_t{64});
}
BENCHMARK(BM_FlajoletMartin);

void BM_HyperLogLog(benchmark::State& state) {
  IngestBench<ndv::HyperLogLog>(state, 12);
}
BENCHMARK(BM_HyperLogLog);

void BM_Kmv(benchmark::State& state) {
  IngestBench<ndv::KMinimumValues>(state, int64_t{1024});
}
BENCHMARK(BM_Kmv);

constexpr int64_t kBatch = 1000;

// A tracker warmed with the 1M-row stream, as StatsMaintainer::Track
// leaves it, plus a batch of values the warm stream does not hold.
struct WarmTracker {
  ndv::IncrementalStats stats{ndv::IncrementalStatsOptions{}};
  std::vector<uint64_t> batch;

  WarmTracker() {
    stats.AddHashes(MakeStream(kStream, kDistinct));
    for (int64_t i = 0; i < kBatch; ++i) {
      batch.push_back(ndv::Hash64(static_cast<uint64_t>(kDistinct + i)));
    }
  }
};

// One 1000-row append: sketches, the reservoir's skip schedule and the
// kept-current profile.
void BM_TrackerAddBatch(benchmark::State& state) {
  WarmTracker warm;
  for (auto _ : state) {
    warm.stats.AddHashes(warm.batch);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TrackerAddBatch);

// What an append publishes after its batch: the GEE estimate and bracket
// over the reservoir's profile.
void BM_TrackerSnapshot(benchmark::State& state) {
  WarmTracker warm;
  warm.stats.AddHashes(warm.batch);
  const std::unique_ptr<ndv::Estimator> gee = ndv::MakeEstimatorByName("GEE");
  for (auto _ : state) {
    benchmark::DoNotOptimize(warm.stats.Snapshot("value", *gee));
  }
}
BENCHMARK(BM_TrackerSnapshot);

}  // namespace

BENCHMARK_MAIN();
