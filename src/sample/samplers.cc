#include "sample/samplers.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "common/flat_hash.h"

namespace ndv {

std::vector<int64_t> SampleWithReplacement(int64_t n, int64_t r, Rng& rng) {
  NDV_CHECK(r >= 0);
  NDV_CHECK(r == 0 || n >= 1);
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(r));
  for (int64_t i = 0; i < r; ++i) {
    rows.push_back(
        static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(n))));
  }
  return rows;
}

std::vector<int64_t> SampleWithoutReplacementFloyd(int64_t n, int64_t r,
                                                   Rng& rng) {
  NDV_CHECK(0 <= r && r <= n);
  // Membership only: the output order comes from the rows vector. Row
  // indices are used as keys directly (FlatHashSet stores key 0 out of
  // line), and Insert reports "newly inserted" like insert().second.
  FlatHashSet chosen(r);
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(r));
  // Floyd: for j = n-r .. n-1 pick t uniform in [0, j]; insert t unless
  // already present, in which case insert j. Every r-subset is equally
  // likely.
  for (int64_t j = n - r; j < n; ++j) {
    const int64_t t =
        static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(j) + 1));
    if (chosen.Insert(static_cast<uint64_t>(t))) {
      rows.push_back(t);
    } else {
      chosen.Insert(static_cast<uint64_t>(j));
      rows.push_back(j);
    }
  }
  return rows;
}

std::vector<int64_t> SampleWithoutReplacementFisherYates(int64_t n, int64_t r,
                                                         Rng& rng) {
  NDV_CHECK(0 <= r && r <= n);
  // Sparse Fisher-Yates: `displaced[i]` holds the value currently sitting at
  // position i when it differs from i itself.
  // NOLINTNEXTLINE(ndv-no-std-hash-container): point lookups only; output
  // order is the draw order, never map iteration order.
  std::unordered_map<int64_t, int64_t> displaced;
  displaced.reserve(static_cast<size_t>(2 * r));
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(r));
  for (int64_t i = 0; i < r; ++i) {
    const int64_t j =
        i + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(n - i)));
    auto it = displaced.find(j);
    const int64_t value = (it == displaced.end()) ? j : it->second;
    auto it_i = displaced.find(i);
    const int64_t value_i = (it_i == displaced.end()) ? i : it_i->second;
    displaced[j] = value_i;
    rows.push_back(value);
  }
  return rows;
}

std::vector<int64_t> SampleBernoulli(int64_t n, double q, Rng& rng) {
  NDV_CHECK(q >= 0.0 && q <= 1.0);
  NDV_CHECK(n >= 0);
  std::vector<int64_t> rows;
  if (q == 0.0 || n == 0) return rows;
  if (q == 1.0) {
    rows.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
    return rows;
  }
  rows.reserve(static_cast<size_t>(static_cast<double>(n) * q * 1.1) + 16);
  // Geometric skips: the gap to the next selected row is Geometric(q).
  const double log1mq = std::log1p(-q);
  int64_t i = -1;
  while (true) {
    const double u = 1.0 - rng.NextDouble();  // u in (0, 1]
    const double skip = std::floor(std::log(u) / log1mq);
    if (skip > static_cast<double>(n)) break;  // Guard against overflow.
    i += 1 + static_cast<int64_t>(skip);
    if (i >= n) break;
    rows.push_back(i);
  }
  return rows;
}

std::vector<int64_t> SampleBlocks(int64_t n, int64_t rows_per_block,
                                  int64_t num_blocks, Rng& rng) {
  NDV_CHECK(rows_per_block >= 1);
  NDV_CHECK(n >= 0);
  const int64_t total_blocks = (n + rows_per_block - 1) / rows_per_block;
  NDV_CHECK(num_blocks >= 0 && num_blocks <= total_blocks);
  std::vector<int64_t> blocks =
      SampleWithoutReplacementFloyd(total_blocks, num_blocks, rng);
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(num_blocks * rows_per_block));
  for (int64_t b : blocks) {
    const int64_t begin = b * rows_per_block;
    const int64_t end = std::min(begin + rows_per_block, n);
    for (int64_t row = begin; row < end; ++row) rows.push_back(row);
  }
  return rows;
}

std::vector<int64_t> SampleSequential(int64_t n, int64_t r, Rng& rng) {
  NDV_CHECK(0 <= r && r <= n);
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(r));
  int64_t needed = r;
  for (int64_t i = 0; i < n && needed > 0; ++i) {
    // P(select row i) = needed / (n - i).
    if (rng.NextBounded(static_cast<uint64_t>(n - i)) <
        static_cast<uint64_t>(needed)) {
      rows.push_back(i);
      --needed;
    }
  }
  NDV_CHECK(needed == 0);
  return rows;
}

ReservoirSamplerR::ReservoirSamplerR(int64_t capacity, Rng rng)
    : capacity_(capacity), rng_(rng) {
  NDV_CHECK(capacity >= 1);
  reservoir_.reserve(static_cast<size_t>(capacity));
}

void ReservoirSamplerR::Add(uint64_t item) {
  ++seen_;
  if (static_cast<int64_t>(reservoir_.size()) < capacity_) {
    reservoir_.push_back(item);
    NDV_DCHECK_EQ(static_cast<int64_t>(reservoir_.size()),
                  std::min(capacity_, seen_));
    return;
  }
  const int64_t j =
      static_cast<int64_t>(rng_.NextBounded(static_cast<uint64_t>(seen_)));
  if (j < capacity_) reservoir_[static_cast<size_t>(j)] = item;
  // A full reservoir stays exactly at capacity: replacements never resize.
  NDV_DCHECK_EQ(static_cast<int64_t>(reservoir_.size()), capacity_);
}

ReservoirSamplerL::ReservoirSamplerL(int64_t capacity, Rng rng)
    : capacity_(capacity), rng_(rng) {
  NDV_CHECK(capacity >= 1);
  reservoir_.reserve(static_cast<size_t>(capacity));
  next_accept_ = capacity_;  // First post-fill acceptance index; scheduled
                             // properly once the reservoir fills.
}

void ReservoirSamplerL::ScheduleNextAcceptance() {
  // Algorithm L: w *= exp(log(U)/k); the next accepted item is
  // floor(log(U')/log(1-w)) items past the current one.
  w_ *= std::exp(std::log(1.0 - rng_.NextDouble()) /
                 static_cast<double>(capacity_));
  // w is a product of exp(log(U)/k) factors with U in (0, 1), so it decays
  // monotonically within (0, 1]; log1p(-w_) below relies on it.
  NDV_DCHECK(w_ > 0.0 && w_ <= 1.0);
  const double u = 1.0 - rng_.NextDouble();
  const double skip = std::fmin(std::floor(std::log(u) / std::log1p(-w_)),
                                9.0e18);
  next_accept_ = seen_ + static_cast<int64_t>(skip);
  // Skip-schedule monotonicity: the next acceptance is never in the past.
  // Every item strictly before it is a guaranteed discard (DiscardRunLength
  // / SkipDiscarded depend on this never moving backwards).
  NDV_DCHECK_GE(next_accept_, seen_);
}

int64_t ReservoirSamplerL::DiscardRunLength() const {
  if (static_cast<int64_t>(reservoir_.size()) < capacity_) return 0;
  return std::max<int64_t>(0, next_accept_ - seen_);
}

void ReservoirSamplerL::SkipDiscarded(int64_t count) {
  NDV_CHECK(0 <= count && count <= DiscardRunLength());
  seen_ += count;
}

ReservoirUpdate ReservoirSamplerL::Add(uint64_t item) {
  const int64_t index = seen_;  // 0-based index of this item in the stream
  ++seen_;
  ReservoirUpdate update;
  if (static_cast<int64_t>(reservoir_.size()) < capacity_) {
    reservoir_.push_back(item);
    if (static_cast<int64_t>(reservoir_.size()) == capacity_) {
      // Reservoir just filled: schedule the first replacement.
      w_ = 1.0;
      ScheduleNextAcceptance();
    }
    NDV_DCHECK_EQ(static_cast<int64_t>(reservoir_.size()),
                  std::min(capacity_, seen_));
    return update;
  }
  if (index == next_accept_) {
    const int64_t slot = static_cast<int64_t>(
        rng_.NextBounded(static_cast<uint64_t>(capacity_)));
    uint64_t& kept = reservoir_[static_cast<size_t>(slot)];
    update = ReservoirUpdate{true, kept};
    kept = item;
    ScheduleNextAcceptance();
  }
  NDV_DCHECK_EQ(static_cast<int64_t>(reservoir_.size()),
                std::min(capacity_, seen_));
  return update;
}

}  // namespace ndv
