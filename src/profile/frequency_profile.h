#ifndef NDV_PROFILE_FREQUENCY_PROFILE_H_
#define NDV_PROFILE_FREQUENCY_PROFILE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ndv {

// The frequency-of-frequencies profile of a multiset: f(i) is the number of
// distinct values occurring exactly i times. This is the *only* information
// the paper's estimators extract from a sample, so it is the central
// exchange type of the library.
//
// Invariants (checked by Validate / maintained by builders):
//   sum_i f(i)      == DistinctValues()   (d in the paper)
//   sum_i i * f(i)  == TotalCount()       (r for a sample of size r)
class FrequencyProfile {
 public:
  FrequencyProfile() = default;

  // Builds a profile from per-class counts (the multiplicity of each
  // distinct value). Zero counts are ignored; counts must be >= 0.
  static FrequencyProfile FromClassCounts(std::span<const int64_t> counts);

  // Builds a profile directly from an f-vector: f_by_freq[i - 1] is f(i).
  // Entries must be >= 0.
  static FrequencyProfile FromFrequencyCounts(
      std::span<const int64_t> f_by_freq);

  // Builds a profile from raw (hashed) sample values: the one hash ->
  // profile path (SummarizeRows, IncrementalStats and DistributedAnalyze
  // all end here). The values are counted in one open-addressing array of
  // {key, count} slots, presized for values.size() distinct keys up to a
  // cache-sized cap and grown past it, then reduced to an f-vector in one
  // pass over the slots. The result depends only on the multiset of
  // values, not on their order.
  static FrequencyProfile FromValues(std::span<const uint64_t> values);

  // Number of classes occurring exactly `i` times; 0 outside [1, MaxFrequency].
  int64_t f(int64_t i) const {
    if (i < 1 || i > MaxFrequency()) return 0;
    return f_[static_cast<size_t>(i - 1)];
  }

  // Largest i with f(i) > 0 (0 for an empty profile).
  int64_t MaxFrequency() const { return static_cast<int64_t>(f_.size()); }

  // d: the number of distinct values observed.
  int64_t DistinctValues() const { return distinct_; }

  // r: total number of items (sum of all class counts).
  int64_t TotalCount() const { return total_; }

  bool empty() const { return total_ == 0; }

  // Increments f(freq) by `delta` classes. freq >= 1, and the result of the
  // update must leave all f(i) >= 0.
  void Add(int64_t freq, int64_t delta = 1);

  // Merges another profile into this one (classes are assumed disjoint).
  void Merge(const FrequencyProfile& other);

  // Returns a copy with all classes of frequency > cutoff removed; used by
  // the stabilized jackknife (DUJ2A). `removed` (optional) receives the
  // number of classes dropped.
  FrequencyProfile Truncated(int64_t cutoff, int64_t* removed = nullptr) const;

  // Number of distinct values occurring more than once (d - f1).
  int64_t RepeatedValues() const { return distinct_ - f(1); }

  // sum_i i*(i-1)*f(i); the pair-count statistic used by CV estimators.
  int64_t PairCount() const;

  // Aborts if internal counters disagree with the stored vector.
  void Validate() const;

  // Human-readable rendering, e.g. "{1:5, 2:3, 7:1}".
  std::string ToString() const;

  bool operator==(const FrequencyProfile& other) const = default;

 private:
  std::vector<int64_t> f_;  // f_[i - 1] == f(i)
  int64_t distinct_ = 0;
  int64_t total_ = 0;
};

// A uniform random sample of a column, reduced to the sufficient statistics
// every estimator needs: the table size n, the sample size r, and the
// frequency profile of the sampled values.
struct SampleSummary {
  int64_t table_rows = 0;   // n
  int64_t sample_rows = 0;  // r (must equal freq.TotalCount())
  // True when the r sampled rows are distinct table rows (without
  // replacement / Bernoulli). Enables the tighter sanity upper bound
  // D <= d + (n - r): every class missing from the sample occupies at
  // least one of the n - r unsampled rows.
  bool distinct_rows = true;
  FrequencyProfile freq;

  int64_t n() const { return table_rows; }
  int64_t r() const { return sample_rows; }
  int64_t d() const { return freq.DistinctValues(); }
  int64_t f(int64_t i) const { return freq.f(i); }
  // Sampling fraction q = r / n.
  double q() const {
    return table_rows == 0
               ? 0.0
               : static_cast<double>(sample_rows) / static_cast<double>(table_rows);
  }

  // Aborts when r != freq.TotalCount(), r > n, or n < 0.
  void Validate() const;
};

// Convenience constructor used widely in tests and benches.
SampleSummary MakeSummary(int64_t table_rows,
                          std::span<const int64_t> f_by_freq);

}  // namespace ndv

#endif  // NDV_PROFILE_FREQUENCY_PROFILE_H_
