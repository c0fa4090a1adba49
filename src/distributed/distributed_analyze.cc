#include "distributed/distributed_analyze.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/all_estimators.h"
#include "distributed/retry.h"
#include "profile/frequency_profile.h"
#include "sample/partition_merge.h"
#include "sample/samplers.h"

namespace ndv {
namespace {

// What a worker sends back to the coordinator. The checksum (an
// order-independent sum of item hashes) lets the coordinator detect
// corrupted payloads before they poison the merge.
struct WorkerReply {
  PartitionSample sample;
  uint64_t checksum = 0;
};

uint64_t PayloadChecksum(const std::vector<uint64_t>& items) {
  uint64_t sum = 0;
  for (uint64_t item : items) sum += Hash64(item);
  return sum;
}

RetryPolicy RetryPolicyFrom(const DistributedAnalyzeOptions& options) {
  RetryPolicy policy;
  policy.max_attempts = options.max_attempts;
  policy.backoff_base_ms = options.backoff_base_ms;
  policy.backoff_max_ms = options.backoff_max_ms;
  return policy;
}

// One worker attempt: simulate the injected fault (if any), then draw a
// uniform without-replacement sample of min(capacity, rows) rows from the
// shard [begin, end) of `column` with `rng`. The rng is taken by value: a
// retry re-runs the identical draw, which is what makes retry-success
// bit-identical to a fault-free run.
StatusOr<WorkerReply> ScanPartitionAttempt(
    const Column& column, int64_t begin, int64_t end, int64_t capacity,
    Rng rng, int partition, int attempt,
    const DistributedAnalyzeOptions& options, Clock& clock) {
  const FaultSpec fault = options.faults == nullptr
                              ? FaultSpec::None()
                              : options.faults->ActionFor(partition, attempt);
  if (fault.kind == FaultKind::kFail) {
    return UnavailableError("injected failure: partition %d attempt %d",
                            partition, attempt);
  }
  if (fault.kind == FaultKind::kSlow) {
    clock.SleepMillis(fault.delay_ms);
    if (options.attempt_timeout_ms > 0 &&
        fault.delay_ms >= options.attempt_timeout_ms) {
      return DeadlineExceededError(
          "partition %d attempt %d timed out after %lld ms "
          "(budget %lld ms)",
          partition, attempt, static_cast<long long>(fault.delay_ms),
          static_cast<long long>(options.attempt_timeout_ms));
    }
  }

  // Floyd draw, then one gather: blocked columns bucket the rows by block
  // and read them in place (the same path AnalyzeTable's
  // SummarizeRows takes). The hypergeometric merge accepts any uniform
  // WOR sample, so the draw order does not matter.
  const int64_t rows = end - begin;
  std::vector<int64_t> picks =
      SampleWithoutReplacementFloyd(rows, std::min(capacity, rows), rng);
  for (int64_t& row : picks) row += begin;
  WorkerReply reply;
  reply.sample.population = rows;
  reply.sample.items.resize(picks.size());
  column.HashRange(picks, reply.sample.items.data());
  reply.checksum = PayloadChecksum(reply.sample.items);

  if (fault.kind == FaultKind::kTruncate) {
    // Half the payload never arrives; the stale checksum and the
    // undersized sample are both detectable coordinator-side.
    reply.sample.items.resize(reply.sample.items.size() / 2);
  } else if (fault.kind == FaultKind::kCorrupt) {
    if (reply.sample.items.empty()) {
      reply.checksum ^= 1;  // Nothing to flip; mangle the checksum itself.
    } else {
      reply.sample.items[0] ^= 1;  // Bit flip in transit.
    }
  }
  return reply;
}

// Coordinator-side admission check for one reply.
Status ValidateReply(const WorkerReply& reply, int64_t target,
                     int partition) {
  NDV_RETURN_IF_ERROR(
      ValidatePartitionSample(reply.sample, target, partition));
  if (PayloadChecksum(reply.sample.items) != reply.checksum) {
    return DataLossError("partition %d: checksum mismatch (corrupt payload)",
                         partition);
  }
  return Status::Ok();
}

// The row range [begin, end) of shard `partition` when `total_rows` rows
// are split into `partitions` contiguous shards, balanced to within one
// row.
struct PartitionRowRange {
  int64_t begin = 0;
  int64_t end = 0;
};

PartitionRowRange PartitionShard(int64_t total_rows, int partitions,
                                 int partition) {
  NDV_CHECK(total_rows >= 0);
  NDV_CHECK(partitions >= 1);
  NDV_CHECK(0 <= partition && partition < partitions);
  PartitionRowRange range;
  range.begin = total_rows * partition / partitions;
  range.end = total_rows * (partition + 1) / partitions;
  return range;
}

}  // namespace

std::string_view PartitionStateName(PartitionState state) {
  switch (state) {
    case PartitionState::kScanned: return "SCANNED";
    case PartitionState::kRecovered: return "RECOVERED";
    case PartitionState::kFailed: return "FAILED";
  }
  return "UNKNOWN";
}

StatusOr<DistributedAnalyzeResult> DistributedAnalyze(
    const Column& column, std::string_view column_name,
    const DistributedAnalyzeOptions& options) {
  if (options.partitions < 1) {
    return InvalidArgumentError("partitions must be >= 1, got %d",
                                options.partitions);
  }
  if (options.sample_rows < 1) {
    return InvalidArgumentError("sample_rows must be >= 1, got %lld",
                                static_cast<long long>(options.sample_rows));
  }
  if (options.max_attempts < 1) {
    return InvalidArgumentError("max_attempts must be >= 1, got %d",
                                options.max_attempts);
  }
  if (column.size() < 1) {
    return InvalidArgumentError(
        "cannot analyze an empty column ('%.*s' has 0 rows)",
        static_cast<int>(std::min<size_t>(column_name.size(), 128)),
        column_name.data());
  }
  const auto estimator = MakeEstimatorByName(options.estimator);
  if (estimator == nullptr) {
    return InvalidArgumentError("unknown estimator '%s'",
                                options.estimator.c_str());
  }

  Clock& clock = options.clock == nullptr ? SystemClock() : *options.clock;
  const int64_t total_rows = column.size();
  const int partitions = options.partitions;

  // Pre-fork all randomness sequentially, so results are independent of
  // thread count and of how many attempts each partition needed.
  Rng root(options.seed);
  std::vector<Rng> partition_rngs;
  partition_rngs.reserve(static_cast<size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    partition_rngs.push_back(root.Fork());
  }
  Rng merge_rng = root.Fork();

  const int64_t start_ms = clock.NowMillis();
  const int64_t deadline_at =
      options.deadline_ms > 0 ? start_ms + options.deadline_ms : 0;

  std::vector<PartitionOutcome> outcomes(static_cast<size_t>(partitions));
  std::vector<WorkerReply> replies(static_cast<size_t>(partitions));

  ParallelFor(partitions, ResolveThreadCount(options.threads),
              [&](int64_t pi) {
    const int p = static_cast<int>(pi);
    const auto [begin, end] = PartitionShard(total_rows, partitions, p);
    PartitionOutcome& outcome = outcomes[static_cast<size_t>(p)];
    outcome.partition = p;
    outcome.rows = end - begin;

    Status last_error;
    for (int attempt = 0;; ++attempt) {
      if (deadline_at > 0 && clock.NowMillis() >= deadline_at) {
        outcome.state = PartitionState::kFailed;
        outcome.status = DeadlineExceededError(
            "coordinator deadline of %lld ms exceeded before partition %d "
            "attempt %d",
            static_cast<long long>(options.deadline_ms), p, attempt);
        return;
      }
      auto reply = ScanPartitionAttempt(
          column, begin, end, options.sample_rows,
          partition_rngs[static_cast<size_t>(p)], p, attempt, options, clock);
      ++outcome.attempts;
      const Status status = reply.ok()
                                ? ValidateReply(*reply, options.sample_rows, p)
                                : reply.status();
      if (status.ok()) {
        replies[static_cast<size_t>(p)] = *std::move(reply);
        outcome.state = attempt == 0 ? PartitionState::kScanned
                                     : PartitionState::kRecovered;
        outcome.status = Status::Ok();
        return;
      }
      last_error = status;
      if (!IsRetryableStatus(status.code()) ||
          attempt + 1 >= options.max_attempts) {
        outcome.state = PartitionState::kFailed;
        outcome.status = last_error;
        return;
      }
      clock.SleepMillis(RetryBackoffMillis(RetryPolicyFrom(options), attempt));
    }
  });

  // Collect survivors in partition order (determinism of the merge).
  std::vector<PartitionSample> survivors;
  int64_t scanned_rows = 0;
  int failed = 0;
  bool all_deadline = true;
  for (int p = 0; p < partitions; ++p) {
    const PartitionOutcome& outcome = outcomes[static_cast<size_t>(p)];
    if (outcome.state == PartitionState::kFailed) {
      ++failed;
      if (outcome.status.code() != StatusCode::kDeadlineExceeded) {
        all_deadline = false;
      }
      continue;
    }
    scanned_rows += outcome.rows;
    survivors.push_back(std::move(replies[static_cast<size_t>(p)].sample));
  }

  if (survivors.empty()) {
    const PartitionOutcome& first = outcomes[0];
    if (all_deadline) {
      return DeadlineExceededError(
          "all %d partitions failed permanently; partition 0: %s", partitions,
          first.status.ToString().c_str());
    }
    return UnavailableError(
        "all %d partitions failed permanently; partition 0: %s", partitions,
        first.status.ToString().c_str());
  }

  const int64_t target = std::min(options.sample_rows, scanned_rows);
  auto merged =
      MergePartitionSamplesOrStatus(std::move(survivors), target, merge_rng);
  if (!merged.ok()) {
    // Every survivor was validated, so a merge failure is a broken
    // coordinator invariant, not bad data.
    return InternalError("validated partition merge failed: %s",
                         merged.status().ToString().c_str());
  }

  SampleSummary summary;
  summary.table_rows = scanned_rows;
  summary.sample_rows = static_cast<int64_t>(merged->size());
  summary.distinct_rows = true;
  summary.freq = FrequencyProfile::FromValues(*merged);
  summary.Validate();

  DistributedAnalyzeResult result;
  result.total_rows = total_rows;
  result.scanned_rows = scanned_rows;
  result.degraded = failed > 0;
  result.coverage =
      static_cast<double>(scanned_rows) / static_cast<double>(total_rows);
  result.outcomes = std::move(outcomes);
  result.scanned_bounds = ComputeGeeBounds(summary);

  // Interval widening (DESIGN.md §9): the scanned-region interval brackets
  // the distinct count of the scanned rows; each of the
  // (total - scanned) unscanned rows can add at most one new distinct
  // value, and can remove none. LOWER stays d; UPPER gains one per
  // unscanned row. Coverage of the true table-level D is preserved.
  const int64_t unscanned_rows = total_rows - scanned_rows;
  ColumnStats& stats = result.stats;
  stats.column_name = std::string(column_name);
  stats.table_rows = total_rows;
  stats.sample_rows = summary.sample_rows;
  stats.sample_distinct = summary.d();
  stats.estimate = estimator->Estimate(summary);
  stats.lower = result.scanned_bounds.lower;
  stats.upper =
      result.scanned_bounds.upper + static_cast<double>(unscanned_rows);
  stats.method = options.estimator;
  stats.coverage = result.coverage;
  stats.degraded = result.degraded;
  // Interval invariants survive the widening: LOWER (= d of the scanned
  // region) never exceeds UPPER, and a point estimate below the observed
  // distinct count would be nonsense. (A non-GEE point estimator may
  // legitimately exceed UPPER on degenerate profiles; see DESIGN.md §11.)
  NDV_DCHECK_LE(stats.lower, stats.upper);
  NDV_DCHECK_GE(stats.estimate, stats.lower);
  NDV_DCHECK(stats.coverage > 0.0 && stats.coverage <= 1.0);
  if (options.durable != nullptr) {
    // Journal before acknowledging: a degraded result in particular is
    // expensive to recompute (its failed partitions may stay failed), so
    // it must survive a coordinator crash once this call returns.
    NDV_RETURN_IF_ERROR(options.durable->AppendPut(stats));
  }
  return result;
}

}  // namespace ndv
