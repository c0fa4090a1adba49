#include "sketch/flajolet_martin.h"

#include <bit>
#include <cmath>

#include "common/check.h"

namespace ndv {

namespace {
// Flajolet & Martin's magic constant correcting the geometric bias.
constexpr double kPhi = 0.77351;
}  // namespace

FlajoletMartin::FlajoletMartin(int64_t num_maps) {
  NDV_CHECK(num_maps >= 1);
  maps_.resize(static_cast<size_t>(num_maps), 0);
}

void FlajoletMartin::Add(uint64_t hash) {
  const uint64_t m = maps_.size();
  const uint64_t map_index = hash % m;
  const uint64_t payload = hash / m;
  // rho = number of trailing zeros of the payload (0..63).
  const int rho = payload == 0 ? 63 : std::countr_zero(payload);
  maps_[map_index] |= (uint64_t{1} << rho);
}

double FlajoletMartin::Estimate() const {
  const double m = static_cast<double>(maps_.size());
  double sum_r = 0.0;
  bool empty = true;
  for (uint64_t map : maps_) {
    // Position of the lowest zero bit.
    sum_r += static_cast<double>(std::countr_one(map));
    empty &= map == 0;
  }
  // Every Add sets a bit, so all-zero maps mean nothing was added; the
  // formula would read m / phi there.
  if (empty) return 0.0;
  return m / kPhi * std::exp2(sum_r / m);
}

}  // namespace ndv
