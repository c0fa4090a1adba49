#ifndef NDV_ESTIMATORS_REGISTRY_H_
#define NDV_ESTIMATORS_REGISTRY_H_

#include <memory>
#include <vector>

#include "estimators/estimator.h"

namespace ndv {

// All baseline (non-paper) estimators with default parameters, in a stable
// order. The paper's own estimators (GEE, AE, HYBGEE) live in ndv_core;
// MakeAllEstimators() there returns the combined set.
std::vector<std::unique_ptr<Estimator>> MakeBaselineEstimators();

}  // namespace ndv

#endif  // NDV_ESTIMATORS_REGISTRY_H_
