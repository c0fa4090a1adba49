#ifndef NDV_TABLE_COLUMN_SAMPLING_H_
#define NDV_TABLE_COLUMN_SAMPLING_H_

#include <cstdint>
#include <span>

#include "common/random.h"
#include "profile/frequency_profile.h"
#include "table/column.h"

namespace ndv {

// Glue between row sampling and the frequency profile: batch-hashes all
// sampled rows of a column with one HashRange call into an r-sized hash
// buffer (blocked columns group the gather by block, decoding each touched
// block once), then counts the buffer through a flat counter into a
// SampleSummary.

enum class SamplingScheme {
  kWithReplacement,
  kWithoutReplacement,  // Floyd's algorithm
  kBernoulli,           // expected fraction q; actual r varies per draw
};

// Builds the SampleSummary for the given pre-selected rows of `column`.
SampleSummary SummarizeRows(const Column& column,
                            std::span<const int64_t> rows);

// Draws a sample of `sample_rows` rows (or expected fraction
// sample_rows/size for Bernoulli) and summarizes it. Requires
// 0 <= sample_rows <= column.size().
SampleSummary SampleColumn(const Column& column, int64_t sample_rows,
                           SamplingScheme scheme, Rng& rng);

// Convenience: sample a fraction of the column without replacement, as the
// paper's experiments do. `fraction` in [0, 1]; the sample size is
// round(fraction * n) clamped to [1, n] (the paper never samples 0 rows).
SampleSummary SampleColumnFraction(const Column& column, double fraction,
                                   Rng& rng);

}  // namespace ndv

#endif  // NDV_TABLE_COLUMN_SAMPLING_H_
