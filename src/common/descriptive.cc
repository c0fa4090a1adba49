#include "common/descriptive.h"

#include <cmath>

#include "common/check.h"

namespace ndv {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::fmin(min_, x);
    max_ = std::fmax(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::PopulationVariance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::SampleVariance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::PopulationStdDev() const {
  return std::sqrt(PopulationVariance());
}

double RatioError(double estimate, double actual) {
  NDV_CHECK(actual > 0.0);
  NDV_CHECK(estimate > 0.0);
  return estimate >= actual ? estimate / actual : actual / estimate;
}

double RelativeError(double estimate, double actual) {
  NDV_CHECK(actual > 0.0);
  return (estimate - actual) / actual;
}

double Mean(const std::vector<double>& values) {
  NDV_CHECK(!values.empty());
  RunningStats stats;
  for (double v : values) stats.Add(v);
  return stats.mean();
}

double StdDev(const std::vector<double>& values) {
  NDV_CHECK(!values.empty());
  RunningStats stats;
  for (double v : values) stats.Add(v);
  return stats.PopulationStdDev();
}

}  // namespace ndv
