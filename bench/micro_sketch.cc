// Microbenchmarks: full-scan probabilistic counters — ingest throughput and
// estimate cost. The scan cost is what makes sketches infeasible for ad-hoc
// statistics on very large tables (the paper's Section 1 argument).

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
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

}  // namespace

BENCHMARK_MAIN();
