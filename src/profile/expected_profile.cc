#include "profile/expected_profile.h"

#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace ndv {
namespace {

int64_t TotalRows(std::span<const int64_t> class_counts) {
  int64_t n = 0;
  for (int64_t t : class_counts) {
    NDV_CHECK(t >= 1);
    n += t;
  }
  return n;
}

}  // namespace

double ExpectedDistinctWor(std::span<const int64_t> class_counts,
                           int64_t r) {
  const int64_t n = TotalRows(class_counts);
  NDV_CHECK(0 <= r && r <= n);
  double expected = 0.0;
  for (int64_t t : class_counts) {
    expected += 1.0 - HypergeometricMissProbability(n, t, r);
  }
  return expected;
}

double ExpectedFiWor(std::span<const int64_t> class_counts, int64_t r,
                     int64_t i) {
  const int64_t n = TotalRows(class_counts);
  NDV_CHECK(0 <= r && r <= n);
  NDV_CHECK(i >= 1);
  double expected = 0.0;
  for (int64_t t : class_counts) {
    expected += HypergeometricPmf(n, t, r, i);
  }
  return expected;
}

double GeeExpectedValueWor(std::span<const int64_t> class_counts,
                           int64_t r) {
  const int64_t n = TotalRows(class_counts);
  NDV_CHECK(1 <= r && r <= n);
  const double e_d = ExpectedDistinctWor(class_counts, r);
  const double e_f1 = ExpectedFiWor(class_counts, r, 1);
  const double scale =
      std::sqrt(static_cast<double>(n) / static_cast<double>(r));
  return scale * e_f1 + (e_d - e_f1);
}

}  // namespace ndv
