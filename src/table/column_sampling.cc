#include "table/column_sampling.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "sample/samplers.h"

namespace ndv {

SampleSummary SummarizeRows(const Column& column,
                            std::span<const int64_t> rows) {
  // One gather of the whole sample into an r-sized hash buffer, then one
  // count of it. The single HashRange call lets a blocked column bucket
  // every sampled row by block and read each value in place
  // (summing delta runs, reading dict codes at their width) without
  // decoding a block; chunking the gather would re-walk every block per
  // chunk. FromValues counts the buffer in one slot array sized for r, so
  // the whole call costs O(r) plus sequential sums. The profile depends
  // only on the hashed multiset, so the buffer's order (request order)
  // does not matter.
  std::vector<uint64_t> hashes(rows.size());
  column.HashRange(rows, hashes.data());
  SampleSummary summary;
  summary.table_rows = column.size();
  summary.sample_rows = static_cast<int64_t>(rows.size());
  summary.freq = FrequencyProfile::FromValues(hashes);
  summary.Validate();
  return summary;
}

SampleSummary SampleColumn(const Column& column, int64_t sample_rows,
                           SamplingScheme scheme, Rng& rng) {
  const int64_t n = column.size();
  NDV_CHECK(0 <= sample_rows && sample_rows <= n);
  std::vector<int64_t> rows;
  bool distinct_rows = true;
  switch (scheme) {
    case SamplingScheme::kWithReplacement:
      rows = SampleWithReplacement(n, sample_rows, rng);
      distinct_rows = false;
      break;
    case SamplingScheme::kWithoutReplacement:
      rows = SampleWithoutReplacementFloyd(n, sample_rows, rng);
      break;
    case SamplingScheme::kBernoulli: {
      const double q =
          n == 0 ? 0.0
                 : static_cast<double>(sample_rows) / static_cast<double>(n);
      rows = SampleBernoulli(n, q, rng);
      break;
    }
  }
  SampleSummary summary = SummarizeRows(column, rows);
  summary.distinct_rows = distinct_rows;
  return summary;
}

SampleSummary SampleColumnFraction(const Column& column, double fraction,
                                   Rng& rng) {
  NDV_CHECK(fraction >= 0.0 && fraction <= 1.0);
  const int64_t n = column.size();
  NDV_CHECK(n >= 1);
  int64_t r = static_cast<int64_t>(
      std::llround(fraction * static_cast<double>(n)));
  if (r < 1) r = 1;
  if (r > n) r = n;
  return SampleColumn(column, r, SamplingScheme::kWithoutReplacement, rng);
}

}  // namespace ndv
