#include "sketch/hyperloglog.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace ndv {

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  NDV_CHECK(4 <= precision && precision <= 18);
  registers_.resize(size_t{1} << precision, 0);
  rank_counts_.resize(static_cast<size_t>(64 - precision + 2), 0);
  rank_counts_[0] = static_cast<int32_t>(registers_.size());
}

void HyperLogLog::Add(uint64_t hash) {
  const uint64_t index = hash >> (64 - precision_);
  const uint64_t rest = hash << precision_;
  // Rank = leading zeros of the remaining bits, plus one. `rest == 0` maps
  // to the maximal rank.
  const int rank =
      rest == 0 ? (64 - precision_ + 1) : (std::countl_zero(rest) + 1);
  uint8_t& reg = registers_[index];
  if (rank > reg) {
    --rank_counts_[reg];
    ++rank_counts_[static_cast<size_t>(rank)];
    reg = static_cast<uint8_t>(rank);
  }
}

double HyperLogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  double alpha;
  if (registers_.size() == 16) {
    alpha = 0.673;
  } else if (registers_.size() == 32) {
    alpha = 0.697;
  } else if (registers_.size() == 64) {
    alpha = 0.709;
  } else {
    alpha = 0.7213 / (1.0 + 1.079 / m);
  }
  // Smallest terms first; each term count * 2^-rank is exact.
  double harmonic = 0.0;
  for (size_t rank = rank_counts_.size(); rank-- > 0;) {
    harmonic += std::ldexp(static_cast<double>(rank_counts_[rank]),
                           -static_cast<int>(rank));
  }
  const int64_t zeros = rank_counts_[0];
  const double raw = alpha * m * m / harmonic;
  if (raw <= 2.5 * m && zeros > 0) {
    // Small-range correction: linear counting over empty registers.
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

double HyperLogLog::StandardError() const {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

KMinimumValues::KMinimumValues(int64_t k) : k_(k) {
  NDV_CHECK(k >= 3);
  heap_.reserve(static_cast<size_t>(k));
}

void KMinimumValues::Add(uint64_t hash) {
  if (static_cast<int64_t>(heap_.size()) < k_) {
    if (std::find(heap_.begin(), heap_.end(), hash) != heap_.end()) return;
    heap_.push_back(hash);
    std::push_heap(heap_.begin(), heap_.end());
    return;
  }
  if (hash >= heap_.front()) return;  // Not among the k smallest.
  if (std::find(heap_.begin(), heap_.end(), hash) != heap_.end()) return;
  std::pop_heap(heap_.begin(), heap_.end());
  heap_.back() = hash;
  std::push_heap(heap_.begin(), heap_.end());
}

double KMinimumValues::Estimate() const {
  const int64_t size = static_cast<int64_t>(heap_.size());
  if (size < k_) return static_cast<double>(size);  // Saw fewer than k.
  // Normalized k-th minimum; +1 avoids division by zero for hash 0.
  const double kth =
      (static_cast<double>(heap_.front()) + 1.0) / std::exp2(64);
  return static_cast<double>(k_ - 1) / kth;
}

}  // namespace ndv
