#ifndef NDV_COMMON_DESCRIPTIVE_H_
#define NDV_COMMON_DESCRIPTIVE_H_

#include <cstdint>
#include <vector>

namespace ndv {

// Streaming mean/variance accumulator (Welford). Used by the experiment
// harness to aggregate per-trial estimates without storing them all.
class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return mean_; }
  // Population variance (divides by N); 0 for fewer than 2 observations.
  double PopulationVariance() const;
  // Sample variance (divides by N - 1); 0 for fewer than 2 observations.
  double SampleVariance() const;
  double PopulationStdDev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// The paper's multiplicative "ratio error": max(D/D_hat, D_hat/D), always
// >= 1. Requires actual > 0 and estimate > 0.
double RatioError(double estimate, double actual);

// Signed relative error (D_hat - D) / D, the additive measure the paper
// contrasts with ratio error. Requires actual > 0.
double RelativeError(double estimate, double actual);

// Mean of `values`; requires non-empty input.
double Mean(const std::vector<double>& values);

// Population standard deviation of `values`; requires non-empty input.
double StdDev(const std::vector<double>& values);

}  // namespace ndv

#endif  // NDV_COMMON_DESCRIPTIVE_H_
