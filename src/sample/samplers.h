#ifndef NDV_SAMPLE_SAMPLERS_H_
#define NDV_SAMPLE_SAMPLERS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace ndv {

// Uniform row-sampling schemes over a table of `n` rows (identified by
// indices 0..n-1). The paper assumes "standard efficient schemes for
// sampling from a table" (Olken); these are those schemes.
//
// All samplers are deterministic functions of the provided Rng.

// r independent uniform draws (sampling WITH replacement). Result order is
// the draw order; duplicates possible. Requires 0 <= r, n >= 1 when r > 0.
std::vector<int64_t> SampleWithReplacement(int64_t n, int64_t r, Rng& rng);

// Sampling WITHOUT replacement via Floyd's algorithm: O(r) expected time and
// O(r) space regardless of n. Result order is unspecified but deterministic
// for a given Rng state. Requires 0 <= r <= n.
std::vector<int64_t> SampleWithoutReplacementFloyd(int64_t n, int64_t r,
                                                   Rng& rng);

// Sampling WITHOUT replacement via a sparse partial Fisher-Yates shuffle
// (hash-map backed), O(r) time/space. The result is a uniformly random
// *ordered* r-permutation of 0..n-1. Requires 0 <= r <= n.
std::vector<int64_t> SampleWithoutReplacementFisherYates(int64_t n, int64_t r,
                                                         Rng& rng);

// Includes each row independently with probability q (Bernoulli sampling,
// the model Shlosser's estimator assumes). Expected size q*n. Requires
// q in [0, 1]. Uses geometric skips, O(q*n) expected time.
std::vector<int64_t> SampleBernoulli(int64_t n, double q, Rng& rng);

// Page-level (block) sampling: the table is divided into blocks of
// `rows_per_block` consecutive rows and `num_blocks` whole blocks are chosen
// without replacement; all rows of a chosen block are returned. This is the
// cheap-but-biased physical design real systems use; provided as an
// extension for studying layout sensitivity. Requires rows_per_block >= 1.
std::vector<int64_t> SampleBlocks(int64_t n, int64_t rows_per_block,
                                  int64_t num_blocks, Rng& rng);

// Sequential (single-pass, in-order) without-replacement sampling —
// Knuth's Algorithm S (TAOCP vol. 3, the paper's reference [20]): row i is
// selected with probability (still needed)/(rows remaining). Exactly
// uniform over r-subsets; output is sorted, which is the access pattern a
// table scan wants. Requires 0 <= r <= n.
std::vector<int64_t> SampleSequential(int64_t n, int64_t r, Rng& rng);

// Single-pass reservoir sampling, Algorithm R (Vitter). Produces a uniform
// without-replacement sample of min(capacity, items seen).
class ReservoirSamplerR {
 public:
  ReservoirSamplerR(int64_t capacity, Rng rng);

  // Feeds one item (any 64-bit payload, e.g. a row id or value hash).
  void Add(uint64_t item);

  int64_t items_seen() const { return seen_; }
  const std::vector<uint64_t>& sample() const { return reservoir_; }

 private:
  int64_t capacity_;
  int64_t seen_ = 0;
  std::vector<uint64_t> reservoir_;
  Rng rng_;
};

// What one ReservoirSamplerL::Add did to the sample, so an owner can keep a
// summary of the sample (e.g. its frequency profile) current without
// rereading it. The offered item entered the sample iff the sample was
// still filling or `evicted` is set.
struct ReservoirUpdate {
  bool evicted = false;       // the offered item replaced `evicted_item`
  uint64_t evicted_item = 0;  // meaningful only when `evicted`
};

// Single-pass reservoir sampling, Algorithm L (Li, 1994): skips ahead
// geometrically so the per-item cost after the reservoir fills is O(1)
// amortized over skipped items. Distributionally identical to Algorithm R.
class ReservoirSamplerL {
 public:
  ReservoirSamplerL(int64_t capacity, Rng rng);

  // Offers one item. While the sample is filling it is kept with no
  // eviction; after that it is kept, evicting a uniformly chosen item, only
  // at the next scheduled acceptance.
  ReservoirUpdate Add(uint64_t item);

  // Number of upcoming Add() calls guaranteed to discard their item (0
  // while the reservoir is still filling, or when the next item is kept).
  // Algorithm L's skip schedule is decided before the skipped items are
  // seen, so a scan may avoid computing their payloads entirely: skip up
  // to this many items via SkipDiscarded() instead of hashing + Add().
  int64_t DiscardRunLength() const;

  // Advances the stream past `count` items without inspecting them.
  // Requires 0 <= count <= DiscardRunLength(). Consumes no randomness:
  // a SkipDiscarded(k) followed by Add(x) leaves the sampler in exactly
  // the state k discarding Add() calls followed by Add(x) would.
  void SkipDiscarded(int64_t count);

  int64_t items_seen() const { return seen_; }
  const std::vector<uint64_t>& sample() const { return reservoir_; }

 private:
  void ScheduleNextAcceptance();

  int64_t capacity_;
  int64_t seen_ = 0;
  int64_t next_accept_ = 0;  // index (in items_seen) of the next item kept
  double w_ = 1.0;
  std::vector<uint64_t> reservoir_;
  Rng rng_;
};

}  // namespace ndv

#endif  // NDV_SAMPLE_SAMPLERS_H_
