// Microbenchmarks: the scan-and-count kernels. Old path (per-row virtual
// HashAt + std::unordered_map/set) vs new path (batched HashSlice + flat
// open-addressing tables) vs the parallel exact-NDV scan, across the four
// canonical distributions: uniform, Zipfian, all-distinct, all-equal.
//
//   ./build/bench/micro_counting --benchmark_format=json

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/flat_hash.h"
#include "common/random.h"
#include "common/value_hash.h"
#include "profile/frequency_profile.h"
#include "table/column.h"
#include "table/table.h"

namespace {

constexpr int64_t kRows = 1000000;

enum DataKind : int64_t {
  kUniform = 0,      // ~100K distinct, uniform frequencies
  kZipfian = 1,      // Zipf(1.0) over 100K values: heavy skew
  kAllDistinct = 2,  // every row unique: worst case for table growth
  kAllEqual = 3,     // one value: best case, pure probe throughput
};

const char* KindName(int64_t kind) {
  switch (kind) {
    case kUniform: return "uniform";
    case kZipfian: return "zipfian";
    case kAllDistinct: return "all_distinct";
    case kAllEqual: return "all_equal";
  }
  return "?";
}

std::unique_ptr<ndv::Int64Column> MakeColumn(int64_t kind) {
  std::vector<int64_t> values;
  values.reserve(kRows);
  ndv::Rng rng(19);
  switch (kind) {
    case kUniform:
      for (int64_t i = 0; i < kRows; ++i) {
        values.push_back(static_cast<int64_t>(rng.NextBounded(100000)));
      }
      break;
    case kZipfian: {
      // Inverse-CDF Zipf(1.0) over 100K values, cheap approximation:
      // value = floor(exp(u * ln(N))) maps uniform u to a 1/x density.
      constexpr double kLogN = 11.512925464970229;  // ln(1e5)
      for (int64_t i = 0; i < kRows; ++i) {
        const double u = rng.NextDouble();
        values.push_back(static_cast<int64_t>(std::exp(u * kLogN)));
      }
      break;
    }
    case kAllDistinct:
      for (int64_t i = 0; i < kRows; ++i) values.push_back(i);
      break;
    case kAllEqual:
      values.assign(kRows, 42);
      break;
  }
  return std::make_unique<ndv::Int64Column>(std::move(values));
}

// --------------------------------------------------------------------------
// Hashing: per-row virtual dispatch vs one batched virtual call.

void BM_HashAtLoop(benchmark::State& state) {
  const auto column = MakeColumn(state.range(0));
  std::vector<uint64_t> out(kRows);
  for (auto _ : state) {
    for (int64_t row = 0; row < kRows; ++row) {
      out[static_cast<size_t>(row)] = column->HashAt(row);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(KindName(state.range(0)));
}
BENCHMARK(BM_HashAtLoop)->Arg(kUniform);

void BM_HashSliceBatch(benchmark::State& state) {
  const auto column = MakeColumn(state.range(0));
  std::vector<uint64_t> out(kRows);
  for (auto _ : state) {
    column->HashSlice(0, kRows, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(KindName(state.range(0)));
}
BENCHMARK(BM_HashSliceBatch)->Arg(kUniform);

// --------------------------------------------------------------------------
// The batch hash loops of common/value_hash.h, one per value type, over
// 1M values.

void BM_HashInt64Kernel(benchmark::State& state) {
  ndv::Rng rng(31);
  std::vector<int64_t> values(kRows);
  for (auto& v : values) v = static_cast<int64_t>(rng.NextU64());
  std::vector<uint64_t> out(kRows);
  for (auto _ : state) {
    ndv::HashInt64Span(values.data(), values.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_HashInt64Kernel);

void BM_HashDoubleKernel(benchmark::State& state) {
  ndv::Rng rng(37);
  std::vector<double> values(kRows);
  for (auto& v : values) {
    v = static_cast<double>(rng.NextBounded(1 << 30)) / 64.0;
  }
  std::vector<uint64_t> out(kRows);
  for (auto _ : state) {
    ndv::HashDoubleSpan(values.data(), values.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_HashDoubleKernel);

void BM_HashCodesKernel(benchmark::State& state) {
  ndv::Rng rng(41);
  constexpr size_t kDict = 5000;
  std::vector<uint64_t> lut(kDict);
  for (size_t i = 0; i < kDict; ++i) lut[i] = ndv::Hash64(i);
  std::vector<int32_t> codes(kRows);
  for (auto& c : codes) c = static_cast<int32_t>(rng.NextBounded(kDict));
  std::vector<uint64_t> out(kRows);
  for (auto _ : state) {
    ndv::HashLookupCodes32(codes.data(), lut.data(), codes.size(),
                           out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_HashCodesKernel);

// --------------------------------------------------------------------------
// Distinct counting: unordered_set (the old ExactDistinctHashSet) vs
// FlatHashSet vs the full parallel kernel.

void BM_DistinctUnorderedSet(benchmark::State& state) {
  const auto column = MakeColumn(state.range(0));
  for (auto _ : state) {
    std::unordered_set<uint64_t> seen;
    seen.reserve(static_cast<size_t>(kRows));
    for (int64_t row = 0; row < kRows; ++row) {
      seen.insert(column->HashAt(row));
    }
    benchmark::DoNotOptimize(seen.size());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(KindName(state.range(0)));
}
BENCHMARK(BM_DistinctUnorderedSet)
    ->Arg(kUniform)->Arg(kZipfian)->Arg(kAllDistinct)->Arg(kAllEqual);

void BM_DistinctFlatSet(benchmark::State& state) {
  const auto column = MakeColumn(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ndv::ExactDistinctHashSet(*column, 1));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(KindName(state.range(0)));
}
BENCHMARK(BM_DistinctFlatSet)
    ->Arg(kUniform)->Arg(kZipfian)->Arg(kAllDistinct)->Arg(kAllEqual);

void BM_DistinctFlatSetParallel(benchmark::State& state) {
  const auto column = MakeColumn(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ndv::ExactDistinctHashSet(*column, 0));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(KindName(state.range(0)));
}
BENCHMARK(BM_DistinctFlatSetParallel)->Arg(kUniform)->Arg(kAllDistinct);

// --------------------------------------------------------------------------
// Frequency profile build: unordered_map counting (the old
// FrequencyProfile::FromValues interior) vs FromValues, which counts in
// one slot array sized for its input.

void BM_ProfileUnorderedMap(benchmark::State& state) {
  const auto column = MakeColumn(state.range(0));
  const std::vector<uint64_t> hashes = column->HashAll();
  for (auto _ : state) {
    std::unordered_map<uint64_t, int64_t> counts;
    counts.reserve(hashes.size());
    for (uint64_t h : hashes) ++counts[h];
    ndv::FrequencyProfile profile;
    for (const auto& entry : counts) profile.Add(entry.second);
    benchmark::DoNotOptimize(profile.DistinctValues());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(KindName(state.range(0)));
}
BENCHMARK(BM_ProfileUnorderedMap)->Arg(kUniform)->Arg(kZipfian);

void BM_ProfileFromValues(benchmark::State& state) {
  const auto column = MakeColumn(state.range(0));
  const std::vector<uint64_t> hashes = column->HashAll();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ndv::FrequencyProfile::FromValues(hashes).DistinctValues());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(KindName(state.range(0)));
}
BENCHMARK(BM_ProfileFromValues)->Arg(kUniform)->Arg(kZipfian);

// --------------------------------------------------------------------------
// String columns: dictionary-coded batch hashing (code -> precomputed
// dictionary hash) vs per-row virtual dispatch, counted end to end.

std::unique_ptr<ndv::StringColumn> MakeStringColumn() {
  ndv::Rng rng(29);
  std::vector<std::string> dictionary;
  for (int i = 0; i < 5000; ++i) {
    dictionary.push_back("category_value_" + std::to_string(i));
  }
  std::vector<int32_t> codes;
  codes.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    codes.push_back(static_cast<int32_t>(rng.NextBounded(5000)));
  }
  return std::make_unique<ndv::StringColumn>(std::move(dictionary),
                                             std::move(codes));
}

void BM_StringDistinctUnorderedSet(benchmark::State& state) {
  const auto column = MakeStringColumn();
  for (auto _ : state) {
    std::unordered_set<uint64_t> seen;
    for (int64_t row = 0; row < column->size(); ++row) {
      seen.insert(column->HashAt(row));
    }
    benchmark::DoNotOptimize(seen.size());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_StringDistinctUnorderedSet);

void BM_StringDistinctFlatSet(benchmark::State& state) {
  const auto column = MakeStringColumn();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ndv::ExactDistinctHashSet(*column, 1));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_StringDistinctFlatSet);

}  // namespace

BENCHMARK_MAIN();
