#include "estimators/registry.h"

#include "estimators/coverage.h"
#include "estimators/goodman.h"
#include "estimators/hybrid.h"
#include "estimators/jackknife.h"
#include "estimators/method_of_moments.h"
#include "estimators/shlosser.h"
#include "estimators/sichel.h"

namespace ndv {

std::vector<std::unique_ptr<Estimator>> MakeBaselineEstimators() {
  std::vector<std::unique_ptr<Estimator>> estimators;
  estimators.push_back(std::make_unique<NaiveScaleUp>());
  estimators.push_back(std::make_unique<MethodOfMoments>());
  estimators.push_back(std::make_unique<FiniteMethodOfMoments>());
  estimators.push_back(std::make_unique<Goodman>());
  estimators.push_back(std::make_unique<Sichel>());
  estimators.push_back(std::make_unique<Chao>());
  estimators.push_back(std::make_unique<ChaoLee>());
  estimators.push_back(std::make_unique<ChaoLee2>());
  estimators.push_back(std::make_unique<HorvitzThompson>());
  estimators.push_back(std::make_unique<Bootstrap>());
  estimators.push_back(std::make_unique<BurnhamOvertonJackknife>());
  estimators.push_back(std::make_unique<BurnhamOverton2Jackknife>());
  estimators.push_back(std::make_unique<UnsmoothedJackknife1>());
  estimators.push_back(std::make_unique<StabilizedJackknife1>());
  estimators.push_back(std::make_unique<UnsmoothedJackknife2>());
  estimators.push_back(std::make_unique<StabilizedJackknife>());
  estimators.push_back(std::make_unique<SmoothedJackknife>());
  estimators.push_back(std::make_unique<Shlosser>());
  estimators.push_back(std::make_unique<ModifiedShlosser>());
  estimators.push_back(std::make_unique<HybSkew>());
  estimators.push_back(std::make_unique<HybVar>());
  return estimators;
}

}  // namespace ndv
