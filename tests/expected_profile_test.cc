#include "profile/expected_profile.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/descriptive.h"
#include "common/math_util.h"
#include "common/random.h"
#include "table/column_sampling.h"
#include "table/table.h"

namespace ndv {
namespace {

TEST(HypergeometricPmfTest, SumsToOne) {
  // For fixed (n, t, r), the pmf over k must sum to 1.
  const int64_t n = 30, t = 8, r = 12;
  double total = 0.0;
  for (int64_t k = 0; k <= t; ++k) {
    total += HypergeometricPmf(n, t, r, k);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(HypergeometricPmfTest, MatchesHandComputation) {
  // n=10, t=4, r=3, k=2: C(4,2) C(6,1) / C(10,3) = 6*6/120 = 0.3.
  EXPECT_NEAR(HypergeometricPmf(10, 4, 3, 2), 0.3, 1e-12);
  // k=0 must match the miss probability.
  EXPECT_NEAR(HypergeometricPmf(10, 4, 3, 0),
              HypergeometricMissProbability(10, 4, 3), 1e-12);
  // k=1 must match the singleton probability.
  EXPECT_NEAR(HypergeometricPmf(10, 4, 3, 1),
              HypergeometricSingletonProbability(10, 4, 3), 1e-12);
}

TEST(HypergeometricPmfTest, ImpossibleOutcomes) {
  EXPECT_DOUBLE_EQ(HypergeometricPmf(10, 2, 3, 5), 0.0);  // k > t
  EXPECT_DOUBLE_EQ(HypergeometricPmf(10, 9, 3, 0), 0.0);  // can't avoid t=9
}

TEST(ExpectedDistinctWorTest, FullScanSeesEverything) {
  const std::vector<int64_t> counts = {5, 3, 1, 1};
  EXPECT_NEAR(ExpectedDistinctWor(counts, 10), 4.0, 1e-12);
}

TEST(ExpectedDistinctWorTest, EmptySampleSeesNothing) {
  const std::vector<int64_t> counts = {5, 3, 2};
  EXPECT_DOUBLE_EQ(ExpectedDistinctWor(counts, 0), 0.0);
}

TEST(ExpectedDistinctWorTest, SingleDrawIsOne) {
  // Any 1-row sample sees exactly one distinct value.
  const std::vector<int64_t> counts = {7, 2, 1};
  EXPECT_NEAR(ExpectedDistinctWor(counts, 1), 1.0, 1e-12);
}

TEST(ExpectedFiWorTest, IdentitiesHold) {
  // sum_i i * E[f_i] == r and sum_i E[f_i] == E[d] when i runs up to r.
  const std::vector<int64_t> counts = {6, 4, 4, 2, 1, 1};
  const int64_t r = 9;
  double sum_f = 0.0, sum_if = 0.0;
  for (int64_t i = 1; i <= r; ++i) {
    const double f_i = ExpectedFiWor(counts, r, i);
    sum_f += f_i;
    sum_if += static_cast<double>(i) * f_i;
  }
  EXPECT_NEAR(sum_f, ExpectedDistinctWor(counts, r), 1e-10);
  EXPECT_NEAR(sum_if, static_cast<double>(r), 1e-10);
}

TEST(ExpectedFiWorTest, MatchesMonteCarloSampling) {
  // The analytic E[d] and E[f1] must match empirical means from the
  // actual sampler within Monte Carlo noise.
  std::vector<int64_t> counts;
  std::vector<int64_t> values;
  for (int64_t c = 0; c < 50; ++c) {
    const int64_t size = 1 + (c % 7) * 3;  // sizes 1..19
    counts.push_back(size);
    values.insert(values.end(), static_cast<size_t>(size), c);
  }
  const Int64Column column(values);
  const int64_t r = 40;

  const double expected_d = ExpectedDistinctWor(counts, r);
  const double expected_f1 = ExpectedFiWor(counts, r, 1);

  Rng rng(17);
  RunningStats d_stats, f1_stats;
  constexpr int kTrials = 3000;
  for (int t = 0; t < kTrials; ++t) {
    const SampleSummary summary =
        SampleColumn(column, r, SamplingScheme::kWithoutReplacement, rng);
    d_stats.Add(static_cast<double>(summary.d()));
    f1_stats.Add(static_cast<double>(summary.f(1)));
  }
  EXPECT_NEAR(d_stats.mean(), expected_d, 0.02 * expected_d);
  EXPECT_NEAR(f1_stats.mean(), expected_f1, 0.05 * expected_f1 + 0.2);
}

TEST(GeeExpectedValueWorTest, WithinTheoremTwoWindow) {
  // E[GEE] within [D / (e sqrt(n/r)) * (1 - o(1)), D sqrt(n/r)] on a mixed
  // population.
  std::vector<int64_t> counts;
  for (int64_t c = 0; c < 2000; ++c) counts.push_back(1 + c % 50);
  int64_t n = 0;
  for (int64_t t : counts) n += t;
  const int64_t r = n / 100;
  const double expected = GeeExpectedValueWor(counts, r);
  const double cap = 2000.0;
  const double scale = std::sqrt(static_cast<double>(n) / static_cast<double>(r));
  EXPECT_GE(expected, cap / (M_E * scale) * 0.9);
  EXPECT_LE(expected, cap * scale * 1.0001);
}

TEST(GeeExpectedValueWorTest, ExactOnFullScan) {
  const std::vector<int64_t> counts = {3, 2, 1};
  EXPECT_NEAR(GeeExpectedValueWor(counts, 6), 3.0, 1e-12);
}

}  // namespace
}  // namespace ndv
