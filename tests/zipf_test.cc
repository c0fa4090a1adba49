#include "datagen/zipf.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/random.h"
#include "table/table.h"

namespace ndv {
namespace {

TEST(ZipfClassFrequenciesTest, ZeroSkewIsAllSingletons) {
  const auto freqs = ZipfClassFrequencies(1000, 0.0);
  EXPECT_EQ(freqs.size(), 1000u);
  for (int64_t f : freqs) EXPECT_EQ(f, 1);
}

TEST(ZipfClassFrequenciesTest, SumsToRows) {
  for (double z : {0.5, 1.0, 2.0, 3.0, 4.0}) {
    for (int64_t rows : {100, 1000, 10000}) {
      const auto freqs = ZipfClassFrequencies(rows, z);
      const int64_t total =
          std::accumulate(freqs.begin(), freqs.end(), int64_t{0});
      EXPECT_EQ(total, rows) << "z=" << z << " rows=" << rows;
    }
  }
}

TEST(ZipfClassFrequenciesTest, FrequenciesDescendAndPositive) {
  const auto freqs = ZipfClassFrequencies(10000, 2.0);
  for (size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_GE(freqs[i], 1);
    if (i > 0) {
      EXPECT_LE(freqs[i], freqs[i - 1]);
    }
  }
}

TEST(ZipfClassFrequenciesTest, HigherSkewFewerClasses) {
  const auto z1 = ZipfClassFrequencies(10000, 1.0);
  const auto z2 = ZipfClassFrequencies(10000, 2.0);
  const auto z4 = ZipfClassFrequencies(10000, 4.0);
  EXPECT_GT(z1.size(), z2.size());
  EXPECT_GT(z2.size(), z4.size());
}

TEST(ZipfClassFrequenciesTest, PaperScaleSanity) {
  // Z=2 on a 1000-row base yields a few dozen classes (the paper reports
  // 49 with its generator; ours lands in the same regime).
  const auto freqs = ZipfClassFrequencies(1000, 2.0);
  EXPECT_GE(freqs.size(), 20u);
  EXPECT_LE(freqs.size(), 80u);
}

TEST(ZipfClassFrequenciesTest, SingleRow) {
  const auto freqs = ZipfClassFrequencies(1, 2.0);
  ASSERT_EQ(freqs.size(), 1u);
  EXPECT_EQ(freqs[0], 1);
}

TEST(ZipfClassFrequenciesTest, OutputIsPinnedOverAGrid) {
  // One digest of every frequency vector over 154 (rows, z) points: the
  // scale search may get faster, but every generated column must stay
  // bit-identical.
  const int64_t rows_grid[] = {1,    2,     3,     5,     10,     50,    100,
                               1000, 4096,  10000, 12345, 50000, 100000,
                               200000};
  const double z_grid[] = {0.0, 0.25, 0.5, 0.75, 1.0, 1.5,
                           2.0, 2.5,  3.0, 3.5,  4.0};
  uint64_t digest = 0;
  for (const int64_t rows : rows_grid) {
    for (const double z : z_grid) {
      const auto freqs = ZipfClassFrequencies(rows, z);
      uint64_t h = Hash64(freqs.size());
      for (const int64_t f : freqs) h = Hash64(h ^ static_cast<uint64_t>(f));
      digest = Hash64(digest ^ h);
    }
  }
  EXPECT_EQ(digest, 0xa209c594b16e8e56ULL);
}

TEST(MakeZipfColumnTest, RowCountAndDistinctCount) {
  ZipfColumnOptions options;
  options.rows = 100000;
  options.z = 1.0;
  options.dup_factor = 10;
  const auto column = MakeZipfColumn(options);
  EXPECT_EQ(column->size(), 100000);
  EXPECT_EQ(ExactDistinctHashSet(*column), ZipfDistinctValues(options));
}

TEST(MakeZipfColumnTest, DuplicationPreservesDistinctCount) {
  ZipfColumnOptions base;
  base.rows = 10000;
  base.z = 1.0;
  base.dup_factor = 1;
  ZipfColumnOptions duplicated;
  duplicated.rows = 100000;
  duplicated.z = 1.0;
  duplicated.dup_factor = 10;
  // Same base rows -> same class structure -> same D.
  EXPECT_EQ(ZipfDistinctValues(base), ZipfDistinctValues(duplicated));
}

TEST(MakeZipfColumnTest, FrequencyMultisetMatchesSpec) {
  ZipfColumnOptions options;
  options.rows = 5000;
  options.z = 2.0;
  options.dup_factor = 5;

  const auto column = MakeZipfColumn(options);
  // NOLINTNEXTLINE(ndv-no-std-hash-container): frequency tally consumed
  // via sorted copy; iteration order never reaches an assertion.
  std::unordered_map<int64_t, int64_t> counts;
  for (int64_t v : column->values()) ++counts[v];
  auto expected = ZipfClassFrequencies(1000, 2.0);
  std::vector<int64_t> observed;
  observed.reserve(counts.size());
  for (const auto& [value, count] : counts) observed.push_back(count);
  std::sort(observed.begin(), observed.end(), std::greater<>());
  for (auto& f : expected) f *= 5;
  EXPECT_EQ(observed, expected);
}

TEST(MakeZipfColumnTest, DeterministicInSeed) {
  ZipfColumnOptions options;
  options.rows = 1000;
  options.z = 1.0;
  options.seed = 77;
  const auto a = MakeZipfColumn(options);
  const auto b = MakeZipfColumn(options);
  EXPECT_EQ(a->values(), b->values());
  options.seed = 78;
  const auto c = MakeZipfColumn(options);
  EXPECT_NE(a->values(), c->values());
}

TEST(MakeZipfColumnTest, LayoutChangesOrderNotContent) {
  ZipfColumnOptions sorted;
  sorted.rows = 1000;
  sorted.z = 2.0;
  sorted.layout = RowLayout::kSorted;
  ZipfColumnOptions shuffled = sorted;
  shuffled.layout = RowLayout::kRandom;
  ZipfColumnOptions clustered = sorted;
  clustered.layout = RowLayout::kClustered;
  clustered.cluster_run = 100;
  const auto a = MakeZipfColumn(sorted);
  const auto b = MakeZipfColumn(shuffled);
  const auto c = MakeZipfColumn(clustered);
  EXPECT_NE(a->values(), b->values());
  EXPECT_NE(a->values(), c->values());
  auto sa = a->values();
  auto sb = b->values();
  auto sc = c->values();
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  std::sort(sc.begin(), sc.end());
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(sa, sc);
}

TEST(MakeZipfColumnTest, SortedLayoutIsNonDecreasingWithinClassBlocks) {
  ZipfColumnOptions options;
  options.rows = 500;
  options.z = 1.0;
  options.layout = RowLayout::kSorted;
  const auto column = MakeZipfColumn(options);
  // Class ids are emitted in rank order: values never decrease.
  for (size_t i = 1; i < column->values().size(); ++i) {
    EXPECT_LE(column->values()[i - 1], column->values()[i]);
  }
}

TEST(MakeZipfColumnTest, ClusteredLayoutKeepsRunsIntact) {
  ZipfColumnOptions options;
  options.rows = 1000;
  options.z = 0.0;  // values 1..1000 exactly once: runs are recognizable
  options.layout = RowLayout::kClustered;
  options.cluster_run = 50;
  const auto column = MakeZipfColumn(options);
  // Within every aligned 50-row run, values are consecutive and ascending.
  for (int64_t run = 0; run < 20; ++run) {
    for (int64_t i = 1; i < 50; ++i) {
      EXPECT_EQ(column->values()[static_cast<size_t>(run * 50 + i)],
                column->values()[static_cast<size_t>(run * 50 + i - 1)] + 1);
    }
  }
}

TEST(MakeZipfColumnTest, RejectsNonDivisibleDuplication) {
  ZipfColumnOptions options;
  options.rows = 1001;
  options.dup_factor = 10;
  EXPECT_DEATH(MakeZipfColumn(options), "multiple");
}

TEST(ZipfianGeneratorTest, SamplesWithinDomain) {
  ZipfianGenerator zipf(100, 1.0);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = zipf.Sample(rng);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(ZipfianGeneratorTest, RankZeroDominatesUnderSkew) {
  ZipfianGenerator zipf(1000, 2.0);
  Rng rng(6);
  int64_t zeros = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Sample(rng) == 0) ++zeros;
  }
  // P(0) = 1/zeta_1000(2) ~= 0.6087.
  EXPECT_NEAR(static_cast<double>(zeros) / kDraws, 0.6087, 0.03);
}

TEST(ZipfianGeneratorTest, UniformWhenZIsZero) {
  ZipfianGenerator zipf(10, 0.0);
  Rng rng(7);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<size_t>(zipf.Sample(rng))];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10.0, kDraws * 0.01);
  }
}

}  // namespace
}  // namespace ndv
