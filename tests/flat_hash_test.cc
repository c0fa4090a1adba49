#include "common/flat_hash.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "profile/frequency_profile.h"

namespace ndv {
namespace {

// ---------------------------------------------------------------------------
// FlatHashSet

TEST(FlatHashSetTest, BasicInsertContains) {
  FlatHashSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.Insert(42));
  EXPECT_FALSE(set.Insert(42));
  EXPECT_TRUE(set.Contains(42));
  EXPECT_FALSE(set.Contains(43));
  EXPECT_EQ(set.size(), 1);
}

TEST(FlatHashSetTest, ZeroAndMaxKeys) {
  FlatHashSet set;
  EXPECT_FALSE(set.Contains(0));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Insert(0));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Insert(UINT64_MAX));
  EXPECT_FALSE(set.Insert(UINT64_MAX));
  EXPECT_TRUE(set.Contains(UINT64_MAX));
  EXPECT_EQ(set.size(), 2);
  int64_t visited = 0;
  bool saw_zero = false;
  bool saw_max = false;
  set.ForEach([&](uint64_t key) {
    ++visited;
    saw_zero |= key == 0;
    saw_max |= key == UINT64_MAX;
  });
  EXPECT_EQ(visited, 2);
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}

TEST(FlatHashSetTest, RandomWorkloadMatchesUnorderedSetOracle) {
  Rng rng(7);
  FlatHashSet set;
  // NOLINTNEXTLINE(ndv-no-std-hash-container): independent oracle —
  // the test differentially checks FlatHash against the std container.
  std::unordered_set<uint64_t> oracle;
  for (int i = 0; i < 20000; ++i) {
    // Small key space forces plenty of duplicates.
    const uint64_t key = rng.NextBounded(4096) * 0x9e3779b97f4a7c15ULL;
    EXPECT_EQ(set.Insert(key), oracle.insert(key).second);
  }
  EXPECT_EQ(set.size(), static_cast<int64_t>(oracle.size()));
  for (uint64_t key : oracle) EXPECT_TRUE(set.Contains(key));
  int64_t visited = 0;
  set.ForEach([&](uint64_t key) {
    ++visited;
    EXPECT_TRUE(oracle.count(key) > 0);
  });
  EXPECT_EQ(visited, set.size());
}

TEST(FlatHashSetTest, AdversarialKeysSharingLowBits) {
  // All keys land in the same initial slot: the worst case for linear
  // probing. Correctness must survive arbitrarily long probe chains and
  // rehashes that re-cluster them.
  FlatHashSet set;
  constexpr int kKeys = 2000;
  for (uint64_t i = 1; i <= kKeys; ++i) {
    EXPECT_TRUE(set.Insert(i << 32));  // Low 32 bits identical (zero).
  }
  EXPECT_EQ(set.size(), kKeys);
  for (uint64_t i = 1; i <= kKeys; ++i) {
    EXPECT_TRUE(set.Contains(i << 32));
    EXPECT_FALSE(set.Contains((i << 32) | 1));
  }
}

TEST(FlatHashSetTest, GrowthAcrossManyResizesKeepsEverything) {
  FlatHashSet set;
  // NOLINTNEXTLINE(ndv-no-std-hash-container): independent oracle —
  // the test differentially checks FlatHash against the std container.
  std::unordered_set<uint64_t> oracle;
  Rng rng(11);
  for (int i = 0; i < 300000; ++i) {
    const uint64_t key = rng.NextU64();
    set.Insert(key);
    oracle.insert(key);
  }
  EXPECT_EQ(set.size(), static_cast<int64_t>(oracle.size()));
  // Power-of-two capacity, load never above 3/4.
  EXPECT_EQ(set.Capacity() & (set.Capacity() - 1), 0);
  EXPECT_LE(set.size() * 4, set.Capacity() * 3);
  EXPECT_GE(set.MemoryBytes(), set.size() * 8);
  for (uint64_t key : oracle) EXPECT_TRUE(set.Contains(key));
}

TEST(FlatHashSetTest, MergeFromIsSetUnion) {
  FlatHashSet a;
  FlatHashSet b;
  // NOLINTNEXTLINE(ndv-no-std-hash-container): independent oracle —
  // the test differentially checks FlatHash against the std container.
  std::unordered_set<uint64_t> oracle;
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = rng.NextBounded(3000) * 0xff51afd7ed558ccdULL;
    if (i % 2 == 0) a.Insert(key);
    else b.Insert(key);
    oracle.insert(key);
  }
  a.Insert(0);
  oracle.insert(0);
  a.MergeFrom(b);
  EXPECT_EQ(a.size(), static_cast<int64_t>(oracle.size()));
  for (uint64_t key : oracle) EXPECT_TRUE(a.Contains(key));
}

TEST(FlatHashSetTest, ReserveAvoidsRehash) {
  FlatHashSet set(1000);
  const int64_t initial_capacity = set.Capacity();
  EXPECT_GE(initial_capacity, 1000);
  for (uint64_t i = 1; i <= 1000; ++i) set.Insert(i * 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(set.Capacity(), initial_capacity);
}

TEST(FlatHashSetTest, ClearResets) {
  FlatHashSet set;
  set.Insert(0);
  set.Insert(5);
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(0));
  EXPECT_FALSE(set.Contains(5));
}

// ---------------------------------------------------------------------------
// FrequencyProfile::FromValues: the counting table behind every sample
// profile, checked against a sort-and-count reference.

FrequencyProfile SortAndCount(std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  std::vector<int64_t> class_counts;
  for (size_t i = 0; i < values.size();) {
    size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    class_counts.push_back(static_cast<int64_t>(j - i));
    i = j;
  }
  return FrequencyProfile::FromClassCounts(class_counts);
}

// r draws over d keys; key 0 is one of them, so hash 0 is always counted.
std::vector<uint64_t> DrawValues(int64_t r, int64_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> values;
  values.reserve(static_cast<size_t>(r));
  for (int64_t i = 0; i < r; ++i) {
    // d == r: every key once, so the input is all-distinct.
    const uint64_t k = d == r ? static_cast<uint64_t>(i)
                              : rng.NextBounded(static_cast<uint64_t>(d));
    values.push_back(k * 0x9e3779b97f4a7c15ULL);
  }
  rng.Shuffle(values);
  return values;
}

void ExpectMatchesReference(const std::vector<uint64_t>& values) {
  const FrequencyProfile profile = FrequencyProfile::FromValues(values);
  profile.Validate();
  EXPECT_EQ(profile, SortAndCount(values));
  EXPECT_EQ(profile.TotalCount(), static_cast<int64_t>(values.size()));
}

TEST(FromValuesTest, MatchesSortAndCountAcrossDistinctCounts) {
  constexpr int64_t kRows = 10000;
  for (const int64_t d : {int64_t{1}, int64_t{50}, int64_t{3000}, kRows}) {
    SCOPED_TRACE("d = " + std::to_string(d));
    const std::vector<uint64_t> values = DrawValues(kRows, d, 17 + d);
    ExpectMatchesReference(values);
    if (d == 1) {
      // The one key is 0, counted out of line.
      EXPECT_EQ(FrequencyProfile::FromValues(values).f(kRows), 1);
    }
    if (d == kRows) {
      EXPECT_EQ(FrequencyProfile::FromValues(values).f(1), kRows);
    }
  }
}

TEST(FromValuesTest, InputsBeyondThePresizeCapGrowAndStayExact) {
  // Presizing stops at 2^15 keys (2^16 slots): d = 70,000 and the
  // all-distinct input double the table past it, d = 50 stays in it.
  constexpr int64_t kRows = 200000;
  for (const int64_t d : {int64_t{50}, int64_t{70000}, kRows}) {
    SCOPED_TRACE("d = " + std::to_string(d));
    ExpectMatchesReference(DrawValues(kRows, d, 23 + d));
  }
}

TEST(FromValuesTest, AdversarialKeysSharingLowBits) {
  // Every key lands in slot 0 of any table up to 2^40 slots: the longest
  // probe chains linear probing can see, through the table's growth.
  std::vector<uint64_t> values;
  for (uint64_t i = 1; i <= 1500; ++i) {
    for (uint64_t c = 0; c <= i % 5; ++c) values.push_back(i << 40);
  }
  values.push_back(0);
  ExpectMatchesReference(values);
}

TEST(FromValuesTest, ZeroAndMaxKeys) {
  ExpectMatchesReference({0, 0, UINT64_MAX, 0, UINT64_MAX, 1});
  const FrequencyProfile profile =
      FrequencyProfile::FromValues(std::vector<uint64_t>{0, 0, UINT64_MAX});
  EXPECT_EQ(profile.f(1), 1);
  EXPECT_EQ(profile.f(2), 1);
}

TEST(FromValuesTest, EmptyInputIsAnEmptyProfile) {
  const FrequencyProfile profile = FrequencyProfile::FromValues({});
  EXPECT_TRUE(profile.empty());
  EXPECT_EQ(profile.DistinctValues(), 0);
  EXPECT_EQ(profile.MaxFrequency(), 0);
}

TEST(FromValuesTest, OrderDoesNotMatter) {
  std::vector<uint64_t> values = DrawValues(5000, 700, 29);
  const FrequencyProfile shuffled = FrequencyProfile::FromValues(values);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(FrequencyProfile::FromValues(values), shuffled);
}

}  // namespace
}  // namespace ndv
