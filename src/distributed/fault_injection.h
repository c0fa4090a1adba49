#ifndef NDV_DISTRIBUTED_FAULT_INJECTION_H_
#define NDV_DISTRIBUTED_FAULT_INJECTION_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ndv {

// Deterministic fault injection for the distributed ANALYZE worker path.
// A FaultPlan maps (partition id, attempt number) to the fault the worker
// must simulate on that attempt — nothing is random at execution time, so
// a given plan always produces the same schedule and tests can assert
// exact outcomes. Randomness only enters when *generating* plans
// (FaultPlan::RandomSweep), and that is seeded.

enum class FaultKind {
  kNone = 0,
  kFail,      // worker reports Unavailable without scanning
  kSlow,      // worker takes `delay_ms` (on the injected clock) to respond
  kTruncate,  // worker returns a sample with half its items missing
  kCorrupt,   // worker returns a bit-flipped payload (checksum mismatch)
};

std::string_view FaultKindName(FaultKind kind);

// A fault applied to one partition for its first `attempts` attempts
// (attempt numbers 0..attempts-1); later attempts run clean. kAlways makes
// the fault permanent.
struct FaultSpec {
  static constexpr int kAlways = std::numeric_limits<int>::max();

  FaultKind kind = FaultKind::kNone;
  int attempts = 0;      // number of leading attempts affected
  int64_t delay_ms = 0;  // kSlow: injected latency per affected attempt

  static FaultSpec None() { return {}; }
  static FaultSpec FailOnce() { return {FaultKind::kFail, 1, 0}; }
  static FaultSpec FailAlways() { return {FaultKind::kFail, kAlways, 0}; }
  static FaultSpec Slow(int64_t delay_ms, int attempts = kAlways) {
    return {FaultKind::kSlow, attempts, delay_ms};
  }
  static FaultSpec Truncate(int attempts = 1) {
    return {FaultKind::kTruncate, attempts, 0};
  }
  static FaultSpec Corrupt(int attempts = 1) {
    return {FaultKind::kCorrupt, attempts, 0};
  }

  bool operator==(const FaultSpec& other) const = default;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // Assigns `spec` to `partition` (>= 0), replacing any previous spec.
  void Set(int partition, FaultSpec spec);

  // The fault the worker must simulate on this (partition, attempt), or
  // kind == kNone when the attempt runs clean. attempt is 0-based.
  FaultSpec ActionFor(int partition, int attempt) const;

  // True when no partition has a fault assigned.
  bool empty() const;

  // Human-readable one-line description, e.g.
  // "p0:FAIL_ALWAYS p3:SLOW(200ms)x2" ("clean" when empty).
  std::string ToString() const;

  // Deterministically generates a plan for `partitions` workers from
  // `seed`: each partition independently draws clean (~40%) or one of the
  // fault kinds with a recoverable (1-2 attempts) or, when
  // `allow_permanent`, permanent duration. Distinct seeds give distinct
  // schedules; the same seed always gives the same plan — the fault-matrix
  // test sweeps seeds 0..N.
  static FaultPlan RandomSweep(uint64_t seed, int partitions,
                               bool allow_permanent = true);

 private:
  std::vector<FaultSpec> specs_;  // indexed by partition id
};

}  // namespace ndv

#endif  // NDV_DISTRIBUTED_FAULT_INJECTION_H_
