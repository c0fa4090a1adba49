#include "sketch/linear_counting.h"

#include <bit>
#include <cmath>

#include "common/check.h"

namespace ndv {

LinearCounting::LinearCounting(int64_t bits) : bits_(bits) {
  NDV_CHECK(bits >= 1);
  words_.resize(static_cast<size_t>((bits + 63) / 64), 0);
}

void LinearCounting::Add(uint64_t hash) {
  const uint64_t bit = hash % static_cast<uint64_t>(bits_);
  words_[bit / 64] |= (uint64_t{1} << (bit % 64));
}

int64_t LinearCounting::zero_bits() const {
  int64_t ones = 0;
  for (uint64_t w : words_) ones += std::popcount(w);
  // Bits beyond bits_ in the last word are never set.
  return bits_ - ones;
}

double LinearCounting::Estimate() const {
  const int64_t z = zero_bits();
  const double m = static_cast<double>(bits_);
  if (z == 0) {
    // Saturated bitmap: report the asymptote.
    return m * std::log(m);
  }
  return -m * std::log(static_cast<double>(z) / m);
}

}  // namespace ndv
