#ifndef NDV_SKETCH_HYPERLOGLOG_H_
#define NDV_SKETCH_HYPERLOGLOG_H_

#include <cstdint>
#include <vector>

#include "sketch/distinct_counter.h"

namespace ndv {

// HyperLogLog (Flajolet et al., 2007) with the standard small-range
// correction: 2^precision byte registers track the maximum leading-zero
// rank per bucket; the harmonic mean gives the raw estimate, and when the
// raw estimate is small the linear-counting estimate over empty registers
// is used instead. Relative error ~1.04 / sqrt(2^precision).
//
// A count of registers per rank is kept current as registers grow, so
// Estimate() sums at most 64 - precision + 2 terms instead of reading every
// register. The per-rank sum equals the register-order sum whenever every
// partial sum is exact, i.e. while every register is <= 53 - precision
// (41 at precision 12): a register beyond that needs a hash with 41 or more
// leading zero bits after the index.
class HyperLogLog final : public DistinctCounter {
 public:
  // Requires 4 <= precision <= 18.
  explicit HyperLogLog(int precision = 12);

  std::string_view name() const override { return "HyperLogLog"; }
  void Add(uint64_t hash) override;
  double Estimate() const override;
  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(registers_.size());
  }

  // Member-wise (the abstract base carries no state to compare; the rank
  // counts follow from the registers).
  bool operator==(const HyperLogLog& other) const {
    return precision_ == other.precision_ && registers_ == other.registers_;
  }

  // Theoretical relative standard error 1.04 / sqrt(2^precision).
  double StandardError() const;

 private:
  int precision_;
  std::vector<uint8_t> registers_;
  // rank_counts_[k] registers hold rank k, for k in [0, 64 - precision + 1].
  std::vector<int32_t> rank_counts_;
};

// K-minimum-values sketch: keeps the k smallest distinct hashes; with
// h_(k) the k-th smallest normalized hash, D_hat = (k - 1) / h_(k).
// Relative error ~1 / sqrt(k - 2).
class KMinimumValues final : public DistinctCounter {
 public:
  // Requires k >= 3.
  explicit KMinimumValues(int64_t k = 1024);

  std::string_view name() const override { return "KMV"; }
  void Add(uint64_t hash) override;
  double Estimate() const override;
  int64_t MemoryBytes() const override { return k_ * 8; }

 private:
  int64_t k_;
  std::vector<uint64_t> heap_;  // max-heap of the k smallest hashes seen
};

}  // namespace ndv

#endif  // NDV_SKETCH_HYPERLOGLOG_H_
