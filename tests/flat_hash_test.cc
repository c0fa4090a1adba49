#include "common/flat_hash.h"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

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
  // Power-of-two capacity, load never above 3/4, peak reflects the largest
  // table.
  EXPECT_EQ(set.Capacity() & (set.Capacity() - 1), 0);
  EXPECT_LE(set.LoadFactor(), 0.75);
  EXPECT_GE(set.PeakCapacity(), set.Capacity());
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
  EXPECT_EQ(set.PeakCapacity(), initial_capacity);
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
// FlatHashCounter

TEST(FlatHashCounterTest, CountsMatchUnorderedMapOracle) {
  Rng rng(17);
  FlatHashCounter counter;
  // NOLINTNEXTLINE(ndv-no-std-hash-container): independent oracle —
  // the test differentially checks FlatHash against the std container.
  std::unordered_map<uint64_t, int64_t> oracle;
  for (int i = 0; i < 50000; ++i) {
    const uint64_t key = rng.NextBounded(2048) * 0xc4ceb9fe1a85ec53ULL;
    const int64_t delta = 1 + static_cast<int64_t>(rng.NextBounded(3));
    counter.Add(key, delta);
    oracle[key] += delta;
  }
  EXPECT_EQ(counter.size(), static_cast<int64_t>(oracle.size()));
  for (const auto& [key, count] : oracle) {
    EXPECT_EQ(counter.Count(key), count);
  }
  int64_t visited = 0;
  counter.ForEach([&](uint64_t key, int64_t count) {
    ++visited;
    const auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(count, it->second);
  });
  EXPECT_EQ(visited, counter.size());
}

TEST(FlatHashCounterTest, ZeroAndMaxKeysCount) {
  FlatHashCounter counter;
  EXPECT_EQ(counter.Count(0), 0);
  counter.Add(0);
  counter.Add(0, 4);
  counter.Add(UINT64_MAX, 2);
  EXPECT_EQ(counter.Count(0), 5);
  EXPECT_EQ(counter.Count(UINT64_MAX), 2);
  EXPECT_EQ(counter.Count(1), 0);
  EXPECT_EQ(counter.size(), 2);
}

TEST(FlatHashCounterTest, AdversarialKeysSharingLowBits) {
  FlatHashCounter counter;
  // NOLINTNEXTLINE(ndv-no-std-hash-container): independent oracle —
  // the test differentially checks FlatHash against the std container.
  std::unordered_map<uint64_t, int64_t> oracle;
  for (uint64_t i = 1; i <= 1500; ++i) {
    const uint64_t key = i << 40;
    const int64_t delta = static_cast<int64_t>(i % 5) + 1;
    counter.Add(key, delta);
    oracle[key] += delta;
  }
  for (const auto& [key, count] : oracle) {
    EXPECT_EQ(counter.Count(key), count);
  }
  EXPECT_EQ(counter.size(), 1500);
}

TEST(FlatHashCounterTest, GrowthAcrossManyResizesPreservesCounts) {
  FlatHashCounter counter;
  // NOLINTNEXTLINE(ndv-no-std-hash-container): independent oracle —
  // the test differentially checks FlatHash against the std container.
  std::unordered_map<uint64_t, int64_t> oracle;
  Rng rng(23);
  for (int i = 0; i < 200000; ++i) {
    const uint64_t key = rng.NextBounded(150000) + 1;
    counter.Add(key);
    ++oracle[key];
  }
  EXPECT_EQ(counter.size(), static_cast<int64_t>(oracle.size()));
  EXPECT_EQ(counter.Capacity() & (counter.Capacity() - 1), 0);
  EXPECT_LE(counter.LoadFactor(), 0.75);
  EXPECT_GE(counter.PeakCapacity(), counter.Capacity());
  for (const auto& [key, count] : oracle) {
    EXPECT_EQ(counter.Count(key), count);
  }
  // Total mass is preserved through every rehash.
  int64_t total = 0;
  counter.ForEach([&](uint64_t, int64_t count) { total += count; });
  EXPECT_EQ(total, 200000);
}

TEST(FlatHashCounterTest, PeakCapacityOutlivesFinalSize) {
  // Grow past several doublings; the peak is the largest table, which for
  // a counter with no erase equals the final capacity — and both exceed
  // the bare element count.
  FlatHashCounter counter;
  for (uint64_t i = 1; i <= 100; ++i) counter.Add(i * 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(counter.PeakCapacity(), counter.Capacity());
  EXPECT_GT(counter.PeakCapacity(), counter.size());
  EXPECT_GT(counter.MemoryBytes(), 0);
}

TEST(FlatHashCounterTest, EmptyCounter) {
  FlatHashCounter counter;
  EXPECT_TRUE(counter.empty());
  EXPECT_EQ(counter.Capacity(), 0);
  EXPECT_EQ(counter.PeakCapacity(), 0);
  EXPECT_EQ(counter.LoadFactor(), 0.0);
  EXPECT_EQ(counter.MemoryBytes(), 0);
  int64_t visited = 0;
  counter.ForEach([&](uint64_t, int64_t) { ++visited; });
  EXPECT_EQ(visited, 0);
}

}  // namespace
}  // namespace ndv
