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

  // Member-wise (the abstract base carries no state to compare).
  bool operator==(const HyperLogLog& other) const {
    return precision_ == other.precision_ && registers_ == other.registers_;
  }

  // Theoretical relative standard error 1.04 / sqrt(2^precision).
  double StandardError() const;

 private:
  int precision_;
  std::vector<uint8_t> registers_;
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
