#include "sample/partition_merge.h"

#include <algorithm>

#include "common/check.h"

namespace ndv {

Status ValidatePartitionSample(const PartitionSample& partition,
                               int64_t target, int index) {
  if (partition.population < 0) {
    return InvalidArgumentError("partition %d: negative population %lld",
                                index,
                                static_cast<long long>(partition.population));
  }
  if (static_cast<int64_t>(partition.items.size()) > partition.population) {
    return DataLossError(
        "partition %d: sample of %lld items exceeds its population %lld",
        index, static_cast<long long>(partition.items.size()),
        static_cast<long long>(partition.population));
  }
  const int64_t required = std::min(target, partition.population);
  if (static_cast<int64_t>(partition.items.size()) < required) {
    return DataLossError(
        "partition %d: sample too small to serve any allocation: "
        "have %lld, need %lld",
        index, static_cast<long long>(partition.items.size()),
        static_cast<long long>(required));
  }
  return Status::Ok();
}

StatusOr<std::vector<uint64_t>> MergePartitionSamplesOrStatus(
    std::vector<PartitionSample> partitions, int64_t target, Rng& rng) {
  if (target < 0) {
    return InvalidArgumentError("negative merge target %lld",
                                static_cast<long long>(target));
  }
  int64_t total_population = 0;
  for (size_t p = 0; p < partitions.size(); ++p) {
    NDV_RETURN_IF_ERROR(ValidatePartitionSample(partitions[p], target,
                                                static_cast<int>(p)));
    total_population += partitions[p].population;
  }
  if (target > total_population) {
    return InvalidArgumentError(
        "cannot sample more rows than exist: target %lld > population %lld",
        static_cast<long long>(target),
        static_cast<long long>(total_population));
  }

  // Multivariate hypergeometric allocation: draw rows one at a time,
  // picking partition i with probability remaining_i / remaining_total.
  std::vector<int64_t> take(partitions.size(), 0);
  std::vector<int64_t> remaining(partitions.size());
  for (size_t p = 0; p < partitions.size(); ++p) {
    remaining[p] = partitions[p].population;
  }
  int64_t remaining_total = total_population;
  for (int64_t draw = 0; draw < target; ++draw) {
    uint64_t pick = rng.NextBounded(static_cast<uint64_t>(remaining_total));
    for (size_t p = 0; p < partitions.size(); ++p) {
      if (pick < static_cast<uint64_t>(remaining[p])) {
        ++take[p];
        --remaining[p];
        --remaining_total;
        break;
      }
      pick -= static_cast<uint64_t>(remaining[p]);
    }
  }

  // Serve each allocation with a random k_i-subset of the partition's own
  // uniform sample (a uniform subset of a uniform sample is uniform).
  std::vector<uint64_t> merged;
  merged.reserve(static_cast<size_t>(target));
  for (size_t p = 0; p < partitions.size(); ++p) {
    std::vector<uint64_t>& pool = partitions[p].items;
    NDV_CHECK(take[p] <= static_cast<int64_t>(pool.size()));
    // Partial Fisher-Yates over the pool.
    for (int64_t k = 0; k < take[p]; ++k) {
      const size_t j =
          static_cast<size_t>(k) +
          static_cast<size_t>(rng.NextBounded(pool.size() - static_cast<size_t>(k)));
      std::swap(pool[static_cast<size_t>(k)], pool[j]);
      merged.push_back(pool[static_cast<size_t>(k)]);
    }
  }
  return merged;
}

}  // namespace ndv
