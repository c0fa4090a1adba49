#ifndef NDV_SKETCH_LINEAR_COUNTING_H_
#define NDV_SKETCH_LINEAR_COUNTING_H_

#include <cstdint>
#include <vector>

#include "sketch/distinct_counter.h"

namespace ndv {

// Linear counting (Whang, Vander-Zanden & Taylor, TODS 1990): hash each
// value into an m-bit bitmap; with z bits still zero, the maximum-likelihood
// estimate is D_hat = -m * ln(z / m). Accurate while the bitmap is not
// saturated (load factor up to ~12 with small error); degenerates once
// z == 0, where the estimate saturates at m * ln(m).
//
// The zero-bit count is kept current on every 0 -> 1 flip, so zero_bits()
// and Estimate() are O(1) reads.
class LinearCounting final : public DistinctCounter {
 public:
  // `bits` is the bitmap size m; requires a power of two (a hash selects
  // its bit by masking).
  explicit LinearCounting(int64_t bits);

  std::string_view name() const override { return "LinearCounting"; }
  void Add(uint64_t hash) override;
  double Estimate() const override;
  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(words_.size()) * 8;
  }

  int64_t zero_bits() const { return zero_bits_; }

  int64_t bits() const { return bits_; }

  // Member-wise (the abstract base carries no state to compare; the
  // zero-bit count follows from the words).
  bool operator==(const LinearCounting& other) const {
    return bits_ == other.bits_ && words_ == other.words_;
  }

 private:
  int64_t bits_;
  int64_t zero_bits_;
  std::vector<uint64_t> words_;
};

}  // namespace ndv

#endif  // NDV_SKETCH_LINEAR_COUNTING_H_
