#ifndef NDV_PROFILE_EXPECTED_PROFILE_H_
#define NDV_PROFILE_EXPECTED_PROFILE_H_

#include <cstdint>
#include <span>

namespace ndv {

// Analytic expectations of a sample's frequency profile under uniform
// WITHOUT-replacement sampling, given the true class counts. Exact
// hypergeometric computations — no Monte Carlo. Used to
//   * validate samplers and estimators against closed forms in tests,
//   * reason about estimator bias without simulation (e.g. E[GEE] on an
//     arbitrary population), and
//   * calibrate experiment designs (expected d, f1 at a target rate).

// Exact E[d] = sum_j (1 - P[class j missed]) for a without-replacement
// sample of r rows. class_counts are the true per-class multiplicities
// (each >= 1, summing to n). Requires 0 <= r <= n.
double ExpectedDistinctWor(std::span<const int64_t> class_counts, int64_t r);

// Exact E[f_i] = sum_j P[class j contributes exactly i rows].
double ExpectedFiWor(std::span<const int64_t> class_counts, int64_t r,
                     int64_t i);

// Expected value of GEE's raw formula sqrt(n/r) E[f1] + (E[d] - E[f1])
// under without-replacement sampling (the WOR analogue of
// GeeExpectedValue). Requires 1 <= r <= n.
double GeeExpectedValueWor(std::span<const int64_t> class_counts, int64_t r);

}  // namespace ndv

#endif  // NDV_PROFILE_EXPECTED_PROFILE_H_
