#include "sketch/linear_counting.h"

#include <cmath>

#include "common/check.h"

namespace ndv {

LinearCounting::LinearCounting(int64_t bits) : bits_(bits), zero_bits_(bits) {
  NDV_CHECK_MSG(bits >= 1 && (bits & (bits - 1)) == 0,
                "linear counting needs a power-of-two bitmap, got %lld bits",
                static_cast<long long>(bits));
  words_.resize(static_cast<size_t>((bits + 63) / 64), 0);
}

void LinearCounting::Add(uint64_t hash) {
  const uint64_t bit = hash & static_cast<uint64_t>(bits_ - 1);
  uint64_t& word = words_[bit / 64];
  const uint64_t flag = uint64_t{1} << (bit % 64);
  if ((word & flag) == 0) {
    word |= flag;
    --zero_bits_;
  }
}

double LinearCounting::Estimate() const {
  const double m = static_cast<double>(bits_);
  // Nothing added: -m * ln(1) would read -0.
  if (zero_bits_ == bits_) return 0.0;
  if (zero_bits_ == 0) {
    // Saturated bitmap: report the asymptote.
    return m * std::log(m);
  }
  return -m * std::log(static_cast<double>(zero_bits_) / m);
}

}  // namespace ndv
