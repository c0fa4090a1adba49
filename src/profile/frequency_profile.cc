#include "profile/frequency_profile.h"

#include <algorithm>

#include "common/check.h"
#include "common/flat_hash.h"

namespace ndv {

FrequencyProfile FrequencyProfile::FromClassCounts(
    std::span<const int64_t> counts) {
  FrequencyProfile profile;
  for (int64_t c : counts) {
    NDV_CHECK(c >= 0);
    if (c > 0) profile.Add(c);
  }
  return profile;
}

FrequencyProfile FrequencyProfile::FromFrequencyCounts(
    std::span<const int64_t> f_by_freq) {
  FrequencyProfile profile;
  for (size_t i = 0; i < f_by_freq.size(); ++i) {
    NDV_CHECK(f_by_freq[i] >= 0);
    if (f_by_freq[i] > 0) {
      profile.Add(static_cast<int64_t>(i + 1), f_by_freq[i]);
    }
  }
  return profile;
}

namespace {

using flat_hash_internal::CountSlot;
using flat_hash_internal::DoubleCountSlots;
using flat_hash_internal::FindCountSlot;

// The counting table is presized for at most this many keys: 2^15 keys
// take 2^16 sixteen-byte slots (1 MiB), which stays cache-sized. A larger
// input starts there and doubles as its distinct count demands.
constexpr int64_t kMaxPresizedKeys = int64_t{1} << 15;

}  // namespace

FrequencyProfile FrequencyProfile::FromValues(
    std::span<const uint64_t> values) {
  const auto presized = std::min<int64_t>(
      static_cast<int64_t>(values.size()), kMaxPresizedKeys);
  std::vector<CountSlot> slots(
      static_cast<size_t>(flat_hash_internal::CapacityFor(presized)),
      CountSlot{0, 0});
  int64_t used = 0;
  int64_t zero_count = 0;
  for (const uint64_t key : values) {
    if (key == 0) {
      ++zero_count;
      continue;
    }
    size_t index = FindCountSlot(slots, key);
    if (slots[index].key != key) {
      // A new key: keep the load factor at or below 3/4.
      if ((used + 1) * 4 > static_cast<int64_t>(slots.size()) * 3) {
        DoubleCountSlots(slots);
        index = FindCountSlot(slots, key);
      }
      slots[index].key = key;
      ++used;
    }
    ++slots[index].count;
  }
  // f_by_freq[c - 1] counts the classes seen c times.
  std::vector<int64_t> f_by_freq;
  const auto add_class = [&f_by_freq](int64_t count) {
    if (count > static_cast<int64_t>(f_by_freq.size())) {
      f_by_freq.resize(static_cast<size_t>(count), 0);
    }
    ++f_by_freq[static_cast<size_t>(count - 1)];
  };
  for (const CountSlot& slot : slots) {
    if (slot.key != 0) add_class(slot.count);
  }
  if (zero_count > 0) add_class(zero_count);
  FrequencyProfile profile = FromFrequencyCounts(f_by_freq);
  // Mass conservation: every input value lands in exactly one class, so
  // sum_i i*f(i) must equal the number of values hashed in.
  NDV_DCHECK_EQ(profile.TotalCount(), static_cast<int64_t>(values.size()));
  return profile;
}

void FrequencyProfile::Add(int64_t freq, int64_t delta) {
  NDV_CHECK(freq >= 1);
  if (delta == 0) return;
  if (freq > MaxFrequency()) {
    f_.resize(static_cast<size_t>(freq), 0);
  }
  int64_t& slot = f_[static_cast<size_t>(freq - 1)];
  NDV_CHECK_MSG(slot + delta >= 0, "f(%lld) would become negative",
                static_cast<long long>(freq));
  slot += delta;
  distinct_ += delta;
  total_ += freq * delta;
  // Trim trailing zeros so MaxFrequency stays tight.
  while (!f_.empty() && f_.back() == 0) f_.pop_back();
  NDV_DCHECK_GE(distinct_, 0);
  NDV_DCHECK_GE(total_, distinct_);
}

void FrequencyProfile::Merge(const FrequencyProfile& other) {
  for (int64_t i = 1; i <= other.MaxFrequency(); ++i) {
    if (other.f(i) > 0) Add(i, other.f(i));
  }
}

FrequencyProfile FrequencyProfile::Truncated(int64_t cutoff,
                                             int64_t* removed) const {
  NDV_CHECK(cutoff >= 0);
  FrequencyProfile result;
  int64_t dropped = 0;
  for (int64_t i = 1; i <= MaxFrequency(); ++i) {
    if (f(i) == 0) continue;
    if (i <= cutoff) {
      result.Add(i, f(i));
    } else {
      dropped += f(i);
    }
  }
  if (removed != nullptr) *removed = dropped;
  return result;
}

int64_t FrequencyProfile::PairCount() const {
  int64_t pairs = 0;
  for (int64_t i = 2; i <= MaxFrequency(); ++i) {
    pairs += i * (i - 1) * f(i);
  }
  return pairs;
}

void FrequencyProfile::Validate() const {
  int64_t distinct = 0;
  int64_t total = 0;
  for (size_t i = 0; i < f_.size(); ++i) {
    NDV_CHECK(f_[i] >= 0);
    distinct += f_[i];
    total += static_cast<int64_t>(i + 1) * f_[i];
  }
  NDV_CHECK(distinct == distinct_);
  NDV_CHECK(total == total_);
  NDV_CHECK(f_.empty() || f_.back() > 0);
}

std::string FrequencyProfile::ToString() const {
  std::string out = "{";
  bool first = true;
  for (int64_t i = 1; i <= MaxFrequency(); ++i) {
    if (f(i) == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += std::to_string(i) + ":" + std::to_string(f(i));
  }
  out += "}";
  return out;
}

void SampleSummary::Validate() const {
  NDV_CHECK(table_rows >= 0);
  NDV_CHECK(sample_rows >= 0);
  NDV_CHECK(sample_rows <= table_rows);
  NDV_CHECK(freq.TotalCount() == sample_rows);
  freq.Validate();
}

SampleSummary MakeSummary(int64_t table_rows,
                          std::span<const int64_t> f_by_freq) {
  SampleSummary summary;
  summary.table_rows = table_rows;
  summary.freq = FrequencyProfile::FromFrequencyCounts(f_by_freq);
  summary.sample_rows = summary.freq.TotalCount();
  summary.Validate();
  return summary;
}

}  // namespace ndv
