#include "sample/partition_merge.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sample/samplers.h"

namespace ndv {
namespace {

// Builds a partition whose items are the full population [base, base+n):
// trivially a valid uniform sample of itself.
PartitionSample FullPartition(uint64_t base, int64_t n) {
  PartitionSample partition;
  partition.population = n;
  for (int64_t i = 0; i < n; ++i) {
    partition.items.push_back(base + static_cast<uint64_t>(i));
  }
  return partition;
}

TEST(SampleSequentialTest, ExactSizeSortedDistinct) {
  Rng rng(1);
  const auto rows = SampleSequential(1000, 100, rng);
  EXPECT_EQ(rows.size(), 100u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  std::set<int64_t> unique(rows.begin(), rows.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_GE(rows.front(), 0);
  EXPECT_LT(rows.back(), 1000);
}

TEST(SampleSequentialTest, FullAndEmpty) {
  Rng rng(2);
  EXPECT_TRUE(SampleSequential(10, 0, rng).empty());
  const auto all = SampleSequential(10, 10, rng);
  EXPECT_EQ(all.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(all[static_cast<size_t>(i)], i);
}

TEST(SampleSequentialTest, UniformInclusion) {
  Rng rng(3);
  constexpr int kTrials = 30000;
  std::vector<int> counts(10, 0);
  for (int t = 0; t < kTrials; ++t) {
    for (int64_t row : SampleSequential(10, 3, rng)) {
      ++counts[static_cast<size_t>(row)];
    }
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials * 0.3, kTrials * 0.02);
  }
}

TEST(MergePartitionSamplesTest, SizeAndMembership) {
  Rng rng(4);
  std::vector<PartitionSample> partitions;
  partitions.push_back(FullPartition(0, 50));
  partitions.push_back(FullPartition(1000, 30));
  const auto merged = MergePartitionSamplesOrStatus(partitions, 40, rng);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->size(), 40u);
  std::set<uint64_t> unique(merged->begin(), merged->end());
  EXPECT_EQ(unique.size(), 40u);  // No duplicates.
  for (uint64_t item : *merged) {
    EXPECT_TRUE(item < 50 || (item >= 1000 && item < 1030));
  }
}

TEST(MergePartitionSamplesTest, AllocationIsProportional) {
  // Partition A has 80% of the rows; across many merges ~80% of merged
  // items must come from A.
  Rng rng(5);
  constexpr int kTrials = 4000;
  int64_t from_a = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<PartitionSample> partitions;
    partitions.push_back(FullPartition(0, 80));
    partitions.push_back(FullPartition(1000, 20));
    const auto merged = MergePartitionSamplesOrStatus(partitions, 10, rng);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    for (uint64_t item : *merged) {
      if (item < 80) ++from_a;
    }
  }
  EXPECT_NEAR(static_cast<double>(from_a) / (kTrials * 10), 0.8, 0.01);
}

TEST(MergePartitionSamplesTest, PerItemInclusionIsUniform) {
  // Every one of the 20 union rows should appear in a 5-item merge with
  // probability 5/20, regardless of partition.
  Rng rng(6);
  constexpr int kTrials = 20000;
  std::map<uint64_t, int> counts;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<PartitionSample> partitions;
    partitions.push_back(FullPartition(0, 12));
    partitions.push_back(FullPartition(100, 8));
    const auto merged = MergePartitionSamplesOrStatus(partitions, 5, rng);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    for (uint64_t item : *merged) {
      ++counts[item];
    }
  }
  EXPECT_EQ(counts.size(), 20u);
  for (const auto& [item, count] : counts) {
    EXPECT_NEAR(count, kTrials * 0.25, kTrials * 0.02) << "item " << item;
  }
}

TEST(MergePartitionSamplesTest, WorksWithReservoirInputs) {
  // Realistic pipeline: each partition runs a reservoir, merges are drawn
  // from the reservoirs.
  Rng rng(7);
  std::vector<PartitionSample> partitions;
  for (int p = 0; p < 4; ++p) {
    ReservoirSamplerR reservoir(64, Rng(static_cast<uint64_t>(p) + 10));
    for (int64_t i = 0; i < 500; ++i) {
      reservoir.Add(static_cast<uint64_t>(p) * 10000 +
                    static_cast<uint64_t>(i));
    }
    PartitionSample partition;
    partition.population = 500;
    partition.items = reservoir.sample();
    partitions.push_back(std::move(partition));
  }
  const auto merged = MergePartitionSamplesOrStatus(partitions, 64, rng);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->size(), 64u);
  std::set<uint64_t> unique(merged->begin(), merged->end());
  EXPECT_EQ(unique.size(), 64u);
}

TEST(MergePartitionSamplesTest, ZeroTarget) {
  Rng rng(10);
  std::vector<PartitionSample> partitions;
  partitions.push_back(FullPartition(0, 5));
  const auto merged = MergePartitionSamplesOrStatus(partitions, 0, rng);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->empty());
}

TEST(MergePartitionSamplesOrStatusTest, UndersizedSampleIsDataLoss) {
  Rng rng(12);
  std::vector<PartitionSample> partitions;
  PartitionSample starved;
  starved.population = 100;
  starved.items = {1, 2, 3};
  partitions.push_back(std::move(starved));
  const auto result =
      MergePartitionSamplesOrStatus(std::move(partitions), 10, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().message().find("have 3, need 10"),
            std::string::npos)
      << result.status().ToString();
}

TEST(MergePartitionSamplesOrStatusTest, OversizedTargetIsInvalidArgument) {
  Rng rng(13);
  std::vector<PartitionSample> partitions;
  partitions.push_back(FullPartition(0, 5));
  const auto result =
      MergePartitionSamplesOrStatus(std::move(partitions), 6, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("target 6 > population 5"),
            std::string::npos)
      << result.status().ToString();
}

TEST(MergePartitionSamplesOrStatusTest, NegativeValuesAreInvalidArgument) {
  Rng rng(14);
  {
    std::vector<PartitionSample> partitions;
    partitions.push_back(FullPartition(0, 5));
    EXPECT_EQ(MergePartitionSamplesOrStatus(std::move(partitions), -1, rng)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::vector<PartitionSample> partitions;
    PartitionSample bad;
    bad.population = -7;
    partitions.push_back(std::move(bad));
    EXPECT_EQ(MergePartitionSamplesOrStatus(std::move(partitions), 0, rng)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(MergePartitionSamplesOrStatusTest, SampleLargerThanPopulationIsDataLoss) {
  Rng rng(15);
  std::vector<PartitionSample> partitions;
  PartitionSample inflated;
  inflated.population = 2;
  inflated.items = {1, 2, 3, 4};
  partitions.push_back(std::move(inflated));
  const auto result =
      MergePartitionSamplesOrStatus(std::move(partitions), 2, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(MergePartitionSamplesOrStatusTest, RngUntouchedOnValidationFailure) {
  // A rejected merge must not advance the rng: the caller can retry the
  // partition and still get the bit-identical fault-free merge.
  Rng used(16);
  Rng fresh(16);
  std::vector<PartitionSample> partitions;
  partitions.push_back(FullPartition(0, 5));
  EXPECT_FALSE(
      MergePartitionSamplesOrStatus(std::move(partitions), 6, used).ok());
  EXPECT_EQ(used.NextU64(), fresh.NextU64());
}

TEST(ValidatePartitionSampleTest, NamesThePartitionInDiagnostics) {
  PartitionSample starved;
  starved.population = 10;
  starved.items = {1};
  const Status status = ValidatePartitionSample(starved, 5, 7);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("partition 7"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(ValidatePartitionSample(FullPartition(0, 5), 5, 0).ok());
}

}  // namespace
}  // namespace ndv
