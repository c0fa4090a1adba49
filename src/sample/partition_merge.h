#ifndef NDV_SAMPLE_PARTITION_MERGE_H_
#define NDV_SAMPLE_PARTITION_MERGE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace ndv {

// Distributed / partitioned sampling: a large table is split across
// partitions (shards, workers, files); each partition returns a uniform
// without-replacement sample of its own rows (e.g. from a reservoir).
// MergePartitionSamplesOrStatus combines them into a single uniform
// without-replacement sample of the WHOLE table — the ingredient a
// parallel ANALYZE needs.
//
// Method: the number of merged-sample rows drawn from each partition
// follows the multivariate hypergeometric distribution with weights n_i
// (partition populations); conditioned on taking k_i rows from partition
// i, any k_i-subset of that partition is equally likely, and the
// partition's own uniform sample supplies one. Hence the merge is exactly
// uniform over r-subsets of the union.

struct PartitionSample {
  int64_t population = 0;        // rows in the partition (n_i)
  std::vector<uint64_t> items;   // uniform WOR sample of the partition
                                 // (value hashes or row payloads)
};

// Checks the preconditions MergePartitionSamplesOrStatus documents for
// partition index `index` (used only in diagnostics): population >= 0,
// sample no larger than its population, and sample large enough to serve
// any hypergeometric allocation (>= min(target, population) items — the
// common way to guarantee this is a reservoir of capacity >= target). Returns
// InvalidArgument/DataLoss describing the first violation. The distributed
// coordinator uses this to classify a worker reply as corrupt before
// merging.
Status ValidatePartitionSample(const PartitionSample& partition,
                               int64_t target, int index);

// Draws `target` items, validating every documented precondition:
//   * target >= 0 and target <= sum of populations,
//   * every partition passes ValidatePartitionSample.
// On violation returns a typed error instead of silently producing a
// non-uniform or out-of-bounds merge. Deterministic in `rng`; the rng is
// only advanced on success. The result order is unspecified.
StatusOr<std::vector<uint64_t>> MergePartitionSamplesOrStatus(
    std::vector<PartitionSample> partitions, int64_t target, Rng& rng);

}  // namespace ndv

#endif  // NDV_SAMPLE_PARTITION_MERGE_H_
