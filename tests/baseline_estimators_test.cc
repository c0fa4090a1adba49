#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/all_estimators.h"
#include "estimators/coverage.h"
#include "estimators/goodman.h"
#include "estimators/jackknife.h"
#include "estimators/method_of_moments.h"
#include "estimators/registry.h"
#include "estimators/shlosser.h"
#include "profile/frequency_profile.h"

namespace ndv {
namespace {

// Shared fixture summary: n=100, f1=3, f2=1 -> r=5, d=4, q=0.05.
SampleSummary SmallSummary() {
  return MakeSummary(100, std::vector<int64_t>{3, 1});
}

TEST(SanityBoundsTest, ClampsToSampleDistinctAndTableSize) {
  // Without-replacement sample: upper bound is d + (n - r) = 4 + 95 = 99.
  const SampleSummary summary = SmallSummary();
  EXPECT_DOUBLE_EQ(ApplySanityBounds(2.0, summary), 4.0);
  EXPECT_DOUBLE_EQ(ApplySanityBounds(250.0, summary), 99.0);
  EXPECT_DOUBLE_EQ(ApplySanityBounds(50.0, summary), 50.0);
  EXPECT_DOUBLE_EQ(ApplySanityBounds(INFINITY, summary), 99.0);
  EXPECT_DOUBLE_EQ(ApplySanityBounds(-INFINITY, summary), 4.0);
  EXPECT_DOUBLE_EQ(ApplySanityBounds(NAN, summary), 99.0);
}

TEST(SanityBoundsTest, WithReplacementKeepsPaperUpperBound) {
  // With replacement the d + (n - r) argument fails (r draws can repeat
  // rows), so the upper bound stays at n.
  SampleSummary summary = SmallSummary();
  summary.distinct_rows = false;
  EXPECT_DOUBLE_EQ(ApplySanityBounds(250.0, summary), 100.0);
}

TEST(SanityBoundsTest, FullScanPinsEstimateToD) {
  const SampleSummary summary = MakeSummary(5, std::vector<int64_t>{1, 2});
  ASSERT_EQ(summary.r(), summary.n());
  EXPECT_DOUBLE_EQ(ApplySanityBounds(42.0, summary), 3.0);
}

TEST(NaiveScaleUpTest, ScalesByInverseSamplingFraction) {
  // d/q = 4 / 0.05 = 80.
  EXPECT_DOUBLE_EQ(NaiveScaleUp().Estimate(SmallSummary()), 80.0);
}

TEST(UnsmoothedJackknife1Test, MatchesHandComputation) {
  // d / (1 - (1-q) f1/r) = 4 / (1 - 0.95*3/5) = 4 / 0.43.
  EXPECT_NEAR(UnsmoothedJackknife1().Estimate(SmallSummary()), 4.0 / 0.43,
              1e-12);
}

TEST(UnsmoothedJackknife1Test, AllSingletonsGivesFullScaleUp) {
  // f1 = r: denominator = q, so D_hat = d/q = n when d == r.
  const SampleSummary summary = MakeSummary(1000, std::vector<int64_t>{10});
  EXPECT_NEAR(UnsmoothedJackknife1().Estimate(summary), 1000.0, 1e-9);
}

TEST(UnsmoothedJackknife1Test, NoSingletonsReturnsD) {
  const SampleSummary summary =
      MakeSummary(1000, std::vector<int64_t>{0, 5});  // f2 = 5
  EXPECT_DOUBLE_EQ(UnsmoothedJackknife1().Estimate(summary), 5.0);
}

TEST(UnsmoothedJackknife2Test, ReducesToUj1WhenCvIsZero) {
  // SmallSummary's estimated gamma^2 clamps to zero (see skew test), so the
  // second-order correction vanishes.
  EXPECT_NEAR(UnsmoothedJackknife2().Estimate(SmallSummary()),
              UnsmoothedJackknife1().Estimate(SmallSummary()), 1e-12);
}

TEST(UnsmoothedJackknife2Test, ExceedsUj1UnderSkew) {
  // A heavy class drives gamma^2 > 0, and the uj2 correction adds classes.
  std::vector<int64_t> f(20, 0);
  f[0] = 10;   // f1 = 10
  f[19] = 2;   // f20 = 2
  const SampleSummary summary = MakeSummary(10000, f);
  EXPECT_GT(UnsmoothedJackknife2().Estimate(summary),
            UnsmoothedJackknife1().Estimate(summary));
}

TEST(UnsmoothedJackknife2Test, FullScanReturnsD) {
  const SampleSummary summary = MakeSummary(6, std::vector<int64_t>{2, 2});
  EXPECT_DOUBLE_EQ(UnsmoothedJackknife2().Estimate(summary), 4.0);
}

TEST(StabilizedJackknifeTest, NoTruncationMatchesUj2) {
  EXPECT_NEAR(StabilizedJackknife(50).Estimate(SmallSummary()),
              UnsmoothedJackknife2().Estimate(SmallSummary()), 1e-12);
}

TEST(StabilizedJackknifeTest, HeavyClassesRemovedAndAddedBack) {
  // f1=5 plus one class seen 100 times; cutoff 50 removes the big class.
  std::vector<int64_t> f(100, 0);
  f[0] = 5;
  f[99] = 1;
  const SampleSummary summary = MakeSummary(10000, f);
  const double estimate = StabilizedJackknife(50).Estimate(summary);
  EXPECT_GE(estimate, 6.0);           // at least d
  EXPECT_LE(estimate, 10000.0);       // sanity
  // The removed heavy class must still be counted: never below uj2 of the
  // reduced sample alone (which estimates only the light classes).
  EXPECT_GT(estimate, 5.0);
}

TEST(StabilizedJackknifeTest, CutoffOneStillFinite) {
  const double estimate = StabilizedJackknife(1).Estimate(SmallSummary());
  EXPECT_GE(estimate, 4.0);
  EXPECT_LE(estimate, 100.0);
}

TEST(SmoothedJackknifeTest, AccurateOnEqualClassSizes) {
  // 1000 classes of 100 rows each (n = 100K), sample r = 2000 without
  // bias toward any class: construct the *expected* profile directly.
  // Instead of simulating, check the fixed point on a profile consistent
  // with the model: expected d and f1 for D=1000, r=2000, p=1/1000.
  const double r = 2000;
  const double p = 1.0 / 1000.0;
  const double e_f1 =
      1000.0 * r * p * std::pow(1.0 - p, r - 1);          // ~270.7
  const double e_d = 1000.0 * (1.0 - std::pow(1.0 - p, r));  // ~864.7
  // Build an integer profile approximating (d, f1): put the remaining
  // classes at frequency 2+ so the totals work out.
  const int64_t f1 = static_cast<int64_t>(e_f1);
  const int64_t d = static_cast<int64_t>(e_d);
  const int64_t repeats = d - f1;
  // Distribute the remaining r - f1 observations over `repeats` classes.
  const int64_t rem = 2000 - f1;
  const int64_t base = rem / repeats;
  const int64_t extra = rem % repeats;
  std::vector<int64_t> f(static_cast<size_t>(base + 2), 0);
  f[0] = f1;
  f[static_cast<size_t>(base - 1)] = repeats - extra;
  f[static_cast<size_t>(base)] = extra;
  const SampleSummary summary = MakeSummary(100000, f);
  const double estimate = SmoothedJackknife().Estimate(summary);
  EXPECT_NEAR(estimate, 1000.0, 150.0);
}

TEST(SmoothedJackknifeTest, DegenerateInputs) {
  // d == 1: nothing to smooth.
  const SampleSummary one = MakeSummary(100, std::vector<int64_t>{0, 0, 1});
  EXPECT_DOUBLE_EQ(SmoothedJackknife().Estimate(one), 1.0);
  // Full scan.
  const SampleSummary full = MakeSummary(4, std::vector<int64_t>{4});
  EXPECT_DOUBLE_EQ(SmoothedJackknife().Estimate(full), 4.0);
}

TEST(BurnhamOvertonTest, MatchesFormula) {
  // d + f1 (r-1)/r = 4 + 3 * 4/5 = 6.4.
  EXPECT_DOUBLE_EQ(BurnhamOvertonJackknife().Estimate(SmallSummary()), 6.4);
}

TEST(ShlosserTest, MatchesHandComputation) {
  // numer = 0.95*3 + 0.9025*1 = 3.7525
  // denom = 1*0.05*1*3 + 2*0.05*0.95*1 = 0.245
  // D_hat = 4 + 3 * numer/denom.
  const double expected = 4.0 + 3.0 * 3.7525 / 0.245;
  EXPECT_NEAR(Shlosser().Estimate(SmallSummary()), expected, 1e-9);
}

TEST(ShlosserTest, NoSingletonsReturnsD) {
  const SampleSummary summary =
      MakeSummary(1000, std::vector<int64_t>{0, 4});
  EXPECT_DOUBLE_EQ(Shlosser().Estimate(summary), 4.0);
}

TEST(ShlosserTest, FullScanReturnsD) {
  const SampleSummary summary = MakeSummary(5, std::vector<int64_t>{5});
  EXPECT_DOUBLE_EQ(Shlosser().Estimate(summary), 5.0);
}

TEST(ModifiedShlosserTest, MatchesHandComputation) {
  // sum f_i / (1-(1-q)^i): 3/0.05 + 1/(1-0.9025) = 60 + 10.25641...
  const double expected = 3.0 / 0.05 + 1.0 / (1.0 - 0.9025);
  EXPECT_NEAR(ModifiedShlosser().Estimate(SmallSummary()), expected, 1e-9);
}

TEST(ModifiedShlosserTest, BlindToDuplication) {
  // The same sample profile from a duplicated table (10x the rows, same
  // class counts scaled): the estimate grows roughly 10x even though the
  // true D is unchanged. This is the published failure mode (Figs. 9-10).
  // Sample profile: every class seen ~10 times, none rare.
  std::vector<int64_t> f(10, 0);
  f[9] = 49;  // 49 classes, 10 observations each; r = 490
  const SampleSummary small_table = MakeSummary(10000, f);    // q ~ 0.05
  const SampleSummary big_table = MakeSummary(100000, f);     // q ~ 0.005
  const double est_small = ModifiedShlosser().Estimate(small_table);
  const double est_big = ModifiedShlosser().Estimate(big_table);
  EXPECT_GT(est_big, 5.0 * est_small);
}

TEST(ChaoTest, MatchesFormula) {
  EXPECT_DOUBLE_EQ(Chao().Estimate(SmallSummary()), 8.5);  // 4 + 9/2
}

TEST(ChaoTest, BiasCorrectedWhenNoDoubletons) {
  // f1=4, f2=0: d + f1(f1-1)/2 = 4 + 6 = 10.
  const SampleSummary summary = MakeSummary(1000, std::vector<int64_t>{4});
  EXPECT_DOUBLE_EQ(Chao().Estimate(summary), 10.0);
}

TEST(ChaoLeeTest, MatchesHandComputation) {
  // C_hat = 0.4, d0 = 10, gamma^2 clamps to 0 -> estimate 10.
  EXPECT_NEAR(ChaoLee().Estimate(SmallSummary()), 10.0, 1e-12);
}

TEST(ChaoLeeTest, AllSingletonsSaturatesAtN) {
  const SampleSummary summary = MakeSummary(500, std::vector<int64_t>{10});
  EXPECT_DOUBLE_EQ(ChaoLee().Estimate(summary), 500.0);
}

TEST(HorvitzThompsonTest, MatchesHandComputation) {
  // i=1: size 20, incl 1-0.95^20; i=2: size 40, incl 1-0.95^40.
  const double incl1 = 1.0 - std::pow(0.95, 20.0);
  const double incl2 = 1.0 - std::pow(0.95, 40.0);
  EXPECT_NEAR(HorvitzThompson().Estimate(SmallSummary()),
              3.0 / incl1 + 1.0 / incl2, 1e-9);
}

TEST(BootstrapTest, MatchesHandComputation) {
  // 4 + 3(1-1/5)^5 + 1(1-2/5)^5.
  const double expected =
      4.0 + 3.0 * std::pow(0.8, 5.0) + std::pow(0.6, 5.0);
  EXPECT_NEAR(Bootstrap().Estimate(SmallSummary()), expected, 1e-12);
}

TEST(GoodmanTest, UnbiasedOnTinyPopulation) {
  // Table {1,1,2,3}: n=4, D=3. Enumerate all C(4,2)=6 samples of size 2.
  // Goodman's estimator must average exactly to D.
  // Sample profiles: one pair with f2=1 (the two copies of value 1), five
  // pairs with f1=2.
  const SampleSummary doubleton =
      MakeSummary(4, std::vector<int64_t>{0, 1});
  const SampleSummary two_singles =
      MakeSummary(4, std::vector<int64_t>{2});
  const double mean = (Goodman::Raw(doubleton) +
                       5.0 * Goodman::Raw(two_singles)) /
                      6.0;
  EXPECT_NEAR(mean, 3.0, 1e-9);
}

TEST(GoodmanTest, ClampedVersionStaysSane) {
  // On larger inputs Goodman explodes; the clamped estimate must stay in
  // [d, n].
  std::vector<int64_t> f = {10, 5, 2, 1};
  const SampleSummary summary = MakeSummary(100000, f);
  const double estimate = Goodman().Estimate(summary);
  EXPECT_GE(estimate, 18.0);
  EXPECT_LE(estimate, 100000.0);
}

TEST(MethodOfMomentsTest, SolvesFirstMomentEquation) {
  const SampleSummary summary =
      MakeSummary(10000, std::vector<int64_t>{2, 4});  // d=6, r=10
  const double estimate = MethodOfMoments().Estimate(summary);
  // Plug back: D (1 - (1-1/D)^r) must reproduce d.
  const double reproduced =
      estimate * (1.0 - std::pow(1.0 - 1.0 / estimate, 10.0));
  EXPECT_NEAR(reproduced, 6.0, 1e-6);
}

TEST(MethodOfMomentsTest, AllDistinctSaturatesAtN) {
  const SampleSummary summary = MakeSummary(300, std::vector<int64_t>{12});
  EXPECT_DOUBLE_EQ(MethodOfMoments().Estimate(summary), 300.0);
}

TEST(RegistryTest, AllBaselinesConstructibleAndNamed) {
  const auto estimators = MakeBaselineEstimators();
  EXPECT_EQ(estimators.size(), 21u);
  for (const auto& estimator : estimators) {
    EXPECT_FALSE(estimator->name().empty());
    // Every baseline produces a sane value on the shared summary.
    const double estimate = estimator->Estimate(SmallSummary());
    EXPECT_GE(estimate, 4.0) << estimator->name();
    EXPECT_LE(estimate, 100.0) << estimator->name();
  }
}

TEST(RegistryTest, LookupByName) {
  EXPECT_NE(MakeEstimatorByName("Shlosser"), nullptr);
  EXPECT_NE(MakeEstimatorByName("HYBSKEW"), nullptr);
  EXPECT_EQ(MakeEstimatorByName("NotAnEstimator"), nullptr);
}

}  // namespace
}  // namespace ndv
