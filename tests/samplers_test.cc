#include "sample/samplers.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace ndv {
namespace {

bool AllInRange(const std::vector<int64_t>& rows, int64_t n) {
  return std::all_of(rows.begin(), rows.end(),
                     [n](int64_t r) { return 0 <= r && r < n; });
}

bool AllDistinct(const std::vector<int64_t>& rows) {
  std::set<int64_t> s(rows.begin(), rows.end());
  return s.size() == rows.size();
}

TEST(SampleWithReplacementTest, SizeAndRange) {
  Rng rng(1);
  const auto rows = SampleWithReplacement(100, 50, rng);
  EXPECT_EQ(rows.size(), 50u);
  EXPECT_TRUE(AllInRange(rows, 100));
}

TEST(SampleWithReplacementTest, CanExceedPopulationAndRepeat) {
  Rng rng(2);
  const auto rows = SampleWithReplacement(3, 100, rng);
  EXPECT_EQ(rows.size(), 100u);
  EXPECT_FALSE(AllDistinct(rows));
}

TEST(SampleWithReplacementTest, EmptySample) {
  Rng rng(3);
  EXPECT_TRUE(SampleWithReplacement(10, 0, rng).empty());
}

TEST(FloydTest, ProducesDistinctRowsOfRightSize) {
  Rng rng(4);
  const auto rows = SampleWithoutReplacementFloyd(1000, 100, rng);
  EXPECT_EQ(rows.size(), 100u);
  EXPECT_TRUE(AllInRange(rows, 1000));
  EXPECT_TRUE(AllDistinct(rows));
}

TEST(FloydTest, FullPopulation) {
  Rng rng(5);
  auto rows = SampleWithoutReplacementFloyd(20, 20, rng);
  std::sort(rows.begin(), rows.end());
  for (int64_t i = 0; i < 20; ++i) EXPECT_EQ(rows[static_cast<size_t>(i)], i);
}

TEST(FloydTest, UniformInclusionProbability) {
  // Each of 10 rows should be included in a 3-of-10 sample with p = 0.3.
  Rng rng(6);
  constexpr int kTrials = 30000;
  std::vector<int> counts(10, 0);
  for (int t = 0; t < kTrials; ++t) {
    for (int64_t row : SampleWithoutReplacementFloyd(10, 3, rng)) {
      ++counts[static_cast<size_t>(row)];
    }
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials * 0.3, kTrials * 0.02);
  }
}

// FNV-1a over the row values, for pinning long sequences.
uint64_t RowsFingerprint(const std::vector<int64_t>& rows) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const int64_t row : rows) {
    h = (h ^ static_cast<uint64_t>(row)) * 0x100000001b3ULL;
  }
  return h;
}

// Golden sequences: Floyd's exact output (order included) for fixed seeds.
// Every sampled ANALYZE, its published statistics and the paper figures
// are functions of this sequence, so a change of the membership set or of
// the draw order must show up here, not as drifted estimates.
TEST(FloydTest, GoldenSequencesAreStable) {
  const auto draw = [](int64_t n, int64_t r, uint64_t seed) {
    Rng rng(seed);
    return SampleWithoutReplacementFloyd(n, r, rng);
  };
  // Draws row 0 first.
  EXPECT_EQ(draw(10, 6, 2), (std::vector<int64_t>{0, 4, 1, 5, 6, 2}));
  // Draws row 0 last.
  EXPECT_EQ(draw(10, 6, 6), (std::vector<int64_t>{3, 5, 6, 1, 8, 0}));
  // Full population: row j is new at step j, drawn or not.
  EXPECT_EQ(draw(12, 12, 7),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  // An ANALYZE-sized draw: a prefix plus a whole-sequence fingerprint.
  const std::vector<int64_t> large = draw(1000000, 50000, 2024);
  ASSERT_EQ(large.size(), 50000u);
  EXPECT_EQ(std::vector<int64_t>(large.begin(), large.begin() + 4),
            (std::vector<int64_t>{53003, 743000, 68452, 151730}));
  EXPECT_EQ(RowsFingerprint(large), 0x1d52820491c28a67ULL);
  EXPECT_TRUE(AllDistinct(large));
}

TEST(FisherYatesTest, ProducesDistinctRowsOfRightSize) {
  Rng rng(7);
  const auto rows = SampleWithoutReplacementFisherYates(1000, 100, rng);
  EXPECT_EQ(rows.size(), 100u);
  EXPECT_TRUE(AllInRange(rows, 1000));
  EXPECT_TRUE(AllDistinct(rows));
}

TEST(FisherYatesTest, UniformOverOrderedPairs) {
  // 2-permutations of {0,1,2}: six outcomes, each with probability 1/6.
  Rng rng(8);
  constexpr int kTrials = 60000;
  std::map<std::pair<int64_t, int64_t>, int> counts;
  for (int t = 0; t < kTrials; ++t) {
    const auto rows = SampleWithoutReplacementFisherYates(3, 2, rng);
    ++counts[{rows[0], rows[1]}];
  }
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [pair, count] : counts) {
    EXPECT_NEAR(count, kTrials / 6.0, kTrials * 0.01);
  }
}

TEST(BernoulliTest, ExpectedSizeAndSortedDistinct) {
  Rng rng(9);
  const auto rows = SampleBernoulli(100000, 0.05, rng);
  EXPECT_NEAR(static_cast<double>(rows.size()), 5000.0, 300.0);
  EXPECT_TRUE(AllDistinct(rows));
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_TRUE(AllInRange(rows, 100000));
}

TEST(BernoulliTest, EdgeRates) {
  Rng rng(10);
  EXPECT_TRUE(SampleBernoulli(1000, 0.0, rng).empty());
  const auto all = SampleBernoulli(50, 1.0, rng);
  EXPECT_EQ(all.size(), 50u);
}

TEST(BernoulliTest, InclusionProbabilityPerRow) {
  Rng rng(11);
  constexpr int kTrials = 20000;
  int count_row0 = 0;
  for (int t = 0; t < kTrials; ++t) {
    const auto rows = SampleBernoulli(10, 0.3, rng);
    if (std::find(rows.begin(), rows.end(), 0) != rows.end()) ++count_row0;
  }
  EXPECT_NEAR(count_row0, kTrials * 0.3, kTrials * 0.02);
}

TEST(BlockTest, WholeBlocksSelected) {
  Rng rng(12);
  const auto rows = SampleBlocks(100, 10, 3, rng);
  EXPECT_EQ(rows.size(), 30u);
  EXPECT_TRUE(AllDistinct(rows));
  // Rows come in runs of 10 sharing a block id.
  std::set<int64_t> blocks;
  for (int64_t row : rows) blocks.insert(row / 10);
  EXPECT_EQ(blocks.size(), 3u);
}

TEST(BlockTest, TailBlockMayBeShort) {
  Rng rng(13);
  // 25 rows, blocks of 10 -> 3 blocks, last has 5 rows.
  const auto rows = SampleBlocks(25, 10, 3, rng);
  EXPECT_EQ(rows.size(), 25u);
}

TEST(ReservoirRTest, KeepsAllWhenUnderCapacity) {
  ReservoirSamplerR sampler(10, Rng(14));
  for (uint64_t i = 0; i < 5; ++i) sampler.Add(i);
  EXPECT_EQ(sampler.items_seen(), 5);
  EXPECT_EQ(sampler.sample().size(), 5u);
}

TEST(ReservoirRTest, CapacityBoundAndUniformity) {
  constexpr int kTrials = 20000;
  std::vector<int> counts(20, 0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSamplerR sampler(5, Rng(static_cast<uint64_t>(t) + 100));
    for (uint64_t i = 0; i < 20; ++i) sampler.Add(i);
    EXPECT_EQ(sampler.sample().size(), 5u);
    for (uint64_t item : sampler.sample()) {
      ++counts[static_cast<size_t>(item)];
    }
  }
  // Every item kept with probability 5/20 = 0.25.
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials * 0.25, kTrials * 0.02);
  }
}

TEST(ReservoirLTest, KeepsAllWhenUnderCapacity) {
  ReservoirSamplerL sampler(10, Rng(15));
  for (uint64_t i = 0; i < 7; ++i) sampler.Add(i);
  EXPECT_EQ(sampler.sample().size(), 7u);
}

TEST(ReservoirLTest, CapacityBoundAndUniformity) {
  constexpr int kTrials = 20000;
  std::vector<int> counts(20, 0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSamplerL sampler(5, Rng(static_cast<uint64_t>(t) + 999));
    for (uint64_t i = 0; i < 20; ++i) sampler.Add(i);
    EXPECT_EQ(sampler.sample().size(), 5u);
    for (uint64_t item : sampler.sample()) {
      ++counts[static_cast<size_t>(item)];
    }
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials * 0.25, kTrials * 0.025);
  }
}

TEST(ReservoirLTest, LongStreamStaysUniform) {
  // 2-of-1000: each item kept with probability 1/500.
  constexpr int kTrials = 4000;
  int first_half = 0;
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSamplerL sampler(2, Rng(static_cast<uint64_t>(t) * 7 + 3));
    for (uint64_t i = 0; i < 1000; ++i) sampler.Add(i);
    for (uint64_t item : sampler.sample()) {
      if (item < 500) ++first_half;
    }
  }
  // Expect half of all kept items from the first half of the stream.
  EXPECT_NEAR(first_half, kTrials, kTrials * 0.1);
}

TEST(ReservoirLTest, SkipDiscardedMatchesPlainAddExactly) {
  // Driving the sampler through the skip schedule must leave it in the
  // exact state the plain Add-every-item loop produces: same sample, same
  // items_seen, after every prefix length. SkipDiscarded consumes no
  // randomness, so the two runs stay in lockstep forever.
  for (uint64_t seed : {1ULL, 17ULL, 92ULL}) {
    ReservoirSamplerL plain(8, Rng(seed));
    ReservoirSamplerL skipping(8, Rng(seed));
    constexpr int64_t kStream = 50000;
    int64_t next = 0;  // next item index the skipping sampler will consume
    for (int64_t i = 0; i < kStream; ++i) {
      plain.Add(i * 0x9e3779b97f4a7c15ULL);
      while (next <= i) {
        // Partial skips are legal (count <= DiscardRunLength), so cap at
        // the prefix boundary to keep both samplers comparable at i.
        const int64_t skip =
            std::min(skipping.DiscardRunLength(), i + 1 - next);
        if (skip > 0) {
          skipping.SkipDiscarded(skip);
          next += skip;
        } else {
          skipping.Add(static_cast<uint64_t>(next) * 0x9e3779b97f4a7c15ULL);
          ++next;
        }
      }
      if (i % 997 == 0 || i + 1 == kStream) {
        ASSERT_EQ(skipping.items_seen(), plain.items_seen()) << "i=" << i;
        ASSERT_EQ(skipping.sample(), plain.sample()) << "i=" << i;
      }
    }
  }
}

TEST(ReservoirLTest, ReportedUpdatesReplayTheSample) {
  // Applying every reported keep and eviction to a mirror multiset
  // reproduces the sample exactly, through the fill and long after it.
  ReservoirSamplerL sampler(16, Rng(3));
  std::multiset<uint64_t> mirror;
  for (uint64_t i = 0; i < 20000; ++i) {
    const uint64_t item = i % 97;
    const bool filling = sampler.sample().size() < 16;
    const ReservoirUpdate update = sampler.Add(item);
    ASSERT_FALSE(filling && update.evicted) << "i=" << i;
    if (update.evicted) {
      const auto it = mirror.find(update.evicted_item);
      ASSERT_NE(it, mirror.end()) << "i=" << i;
      mirror.erase(it);
    }
    if (filling || update.evicted) mirror.insert(item);
    ASSERT_EQ(mirror, std::multiset<uint64_t>(sampler.sample().begin(),
                                              sampler.sample().end()))
        << "i=" << i;
  }
}

TEST(ReservoirLTest, DiscardRunLengthIsZeroWhileFilling) {
  ReservoirSamplerL sampler(4, Rng(7));
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sampler.DiscardRunLength(), 0);
    sampler.Add(i);
  }
  // Past capacity a skip run may (and with high probability eventually
  // does) appear; SkipDiscarded(0) is always legal.
  sampler.SkipDiscarded(0);
  EXPECT_GE(sampler.DiscardRunLength(), 0);
}

}  // namespace
}  // namespace ndv
