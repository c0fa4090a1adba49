// Differential fuzz of the two flat hash tables: FlatHashSet against
// std::unordered_set, and FrequencyProfile::FromValues (the {key, count}
// slot array behind every sample profile) against a sort-and-count
// reference. The input is decoded as an operation sequence (insert /
// membership probe / append a value to the profile input / profile check /
// merge), and after every operation the set must agree with its oracle.
// Structural invariants — power-of-two capacity, load factor <= 3/4 — are
// asserted throughout (the probe and growth paths carry NDV_DCHECKs as
// well; fuzz builds force NDV_DCHECK_ENABLED).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/flat_hash.h"
#include "profile/frequency_profile.h"

namespace {

constexpr size_t kMaxInputBytes = 1 << 14;  // 16 KiB ~ two thousand ops

struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  bool Done() const { return pos >= size; }
  uint8_t Byte() { return Done() ? 0 : data[pos++]; }
  uint64_t Key() {
    uint64_t key = 0;
    for (int i = 0; i < 8 && pos < size; ++i) {
      key = (key << 8) | data[pos++];
    }
    return key;
  }
};

void CheckStructure(const ndv::FlatHashSet& set) {
  const int64_t capacity = set.Capacity();
  NDV_CHECK((capacity & (capacity - 1)) == 0);
  // The zero key lives out of line and takes no slot.
  const int64_t slotted = set.size() - (set.Contains(0) ? 1 : 0);
  NDV_CHECK_LE(slotted * 4, capacity * 3);
}

// The profile of `values` by sorting and counting runs.
ndv::FrequencyProfile SortAndCount(std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  std::vector<int64_t> class_counts;
  for (size_t i = 0; i < values.size();) {
    size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    class_counts.push_back(static_cast<int64_t>(j - i));
    i = j;
  }
  return ndv::FrequencyProfile::FromClassCounts(class_counts);
}

void CheckProfile(const std::vector<uint64_t>& values) {
  const ndv::FrequencyProfile profile = ndv::FrequencyProfile::FromValues(values);
  profile.Validate();
  NDV_CHECK(profile == SortAndCount(values));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) return 0;
  Reader in{data, size};

  ndv::FlatHashSet set;
  std::unordered_set<uint64_t> set_oracle;
  std::vector<uint64_t> values;

  while (!in.Done()) {
    switch (in.Byte() % 5) {
      case 0: {
        const uint64_t key = in.Key();
        const bool inserted = set.Insert(key);
        NDV_CHECK_EQ(inserted, set_oracle.insert(key).second);
        break;
      }
      case 1: {
        const uint64_t key = in.Key();
        NDV_CHECK_EQ(set.Contains(key), set_oracle.contains(key));
        break;
      }
      case 2: {
        const uint64_t key = in.Key();
        const int repeats = 1 + in.Byte() % 4;
        for (int i = 0; i < repeats; ++i) values.push_back(key);
        break;
      }
      case 3:
        CheckProfile(values);
        break;
      case 4: {
        // Union-merge the running set into a pre-sized scratch set; the
        // merge must be a no-op on membership.
        ndv::FlatHashSet merged(set.size() / 2);
        merged.MergeFrom(set);
        NDV_CHECK_EQ(merged.size(), set.size());
        break;
      }
    }
    NDV_CHECK_EQ(set.size(), static_cast<int64_t>(set_oracle.size()));
    CheckStructure(set);
  }

  // Full final sweep: both directions of containment, via ForEach.
  int64_t visited = 0;
  set.ForEach([&](uint64_t key) {
    NDV_CHECK(set_oracle.contains(key));
    ++visited;
  });
  NDV_CHECK_EQ(visited, set.size());
  for (uint64_t key : set_oracle) NDV_CHECK(set.Contains(key));

  CheckProfile(values);
  return 0;
}
