#include "distributed/distributed_analyze.h"

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/durable_catalog.h"
#include "datagen/zipf.h"
#include "table/table.h"

namespace ndv {
namespace {

// Shared fixture: one Zipf column, its exact distinct count, and the
// fault-free baseline result every fault schedule is compared against.
class DistributedAnalyzeTest : public ::testing::Test {
 protected:
  static constexpr int kPartitions = 8;
  static constexpr int64_t kRows = 80000;
  static constexpr int64_t kSampleRows = 4000;

  static void SetUpTestSuite() {
    ZipfColumnOptions options;
    options.rows = kRows;
    options.z = 1.0;
    options.dup_factor = 50;
    column_ = MakeZipfColumn(options).release();
    actual_distinct_ = ExactDistinctHashSet(*column_);
  }

  static void TearDownTestSuite() {
    delete column_;
    column_ = nullptr;
  }

  // Options wired to a per-call virtual clock so schedules run instantly.
  DistributedAnalyzeOptions BaseOptions() {
    DistributedAnalyzeOptions options;
    options.partitions = kPartitions;
    options.sample_rows = kSampleRows;
    options.max_attempts = 3;
    options.seed = 42;
    options.threads = 1;
    options.clock = &clock_;
    return options;
  }

  StatusOr<DistributedAnalyzeResult> Run(
      const DistributedAnalyzeOptions& options) {
    return DistributedAnalyze(*column_, "value", options);
  }

  DistributedAnalyzeResult Baseline() {
    auto result = Run(BaseOptions());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *std::move(result);
  }

  static void ExpectIdenticalStats(const DistributedAnalyzeResult& a,
                                   const DistributedAnalyzeResult& b) {
    EXPECT_EQ(a.stats.estimate, b.stats.estimate);
    EXPECT_EQ(a.stats.lower, b.stats.lower);
    EXPECT_EQ(a.stats.upper, b.stats.upper);
    EXPECT_EQ(a.stats.sample_rows, b.stats.sample_rows);
    EXPECT_EQ(a.stats.sample_distinct, b.stats.sample_distinct);
    EXPECT_EQ(a.stats.coverage, b.stats.coverage);
    EXPECT_EQ(a.stats.degraded, b.stats.degraded);
    EXPECT_EQ(a.scanned_bounds.lower, b.scanned_bounds.lower);
    EXPECT_EQ(a.scanned_bounds.upper, b.scanned_bounds.upper);
    EXPECT_EQ(a.scanned_bounds.estimate, b.scanned_bounds.estimate);
  }

  VirtualClock clock_;

  static const Column* column_;
  static int64_t actual_distinct_;
};

const Column* DistributedAnalyzeTest::column_ = nullptr;
int64_t DistributedAnalyzeTest::actual_distinct_ = 0;

TEST_F(DistributedAnalyzeTest, CleanRunCoversTruth) {
  const DistributedAnalyzeResult result = Baseline();
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.coverage, 1.0);
  EXPECT_EQ(result.total_rows, kRows);
  EXPECT_EQ(result.scanned_rows, kRows);
  ASSERT_EQ(result.outcomes.size(), static_cast<size_t>(kPartitions));
  for (const PartitionOutcome& outcome : result.outcomes) {
    EXPECT_EQ(outcome.state, PartitionState::kScanned);
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_TRUE(outcome.status.ok());
  }
  EXPECT_LE(result.stats.lower, static_cast<double>(actual_distinct_));
  EXPECT_GE(result.stats.upper, static_cast<double>(actual_distinct_));
  EXPECT_EQ(result.stats.sample_rows, kSampleRows);
}

TEST_F(DistributedAnalyzeTest, EveryTransientFaultKindRecoversBitIdentically) {
  const DistributedAnalyzeResult baseline = Baseline();

  FaultPlan plan;
  plan.Set(0, FaultSpec::FailOnce());
  plan.Set(2, FaultSpec::Corrupt(1));
  plan.Set(4, FaultSpec::Truncate(2));
  plan.Set(6, FaultSpec::Slow(5000, 1));  // > attempt_timeout of 1000 ms

  DistributedAnalyzeOptions options = BaseOptions();
  options.faults = &plan;
  auto result = Run(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->degraded);
  ExpectIdenticalStats(*result, baseline);

  EXPECT_EQ(result->outcomes[0].state, PartitionState::kRecovered);
  EXPECT_EQ(result->outcomes[0].attempts, 2);
  EXPECT_EQ(result->outcomes[2].state, PartitionState::kRecovered);
  EXPECT_EQ(result->outcomes[2].attempts, 2);
  EXPECT_EQ(result->outcomes[4].state, PartitionState::kRecovered);
  EXPECT_EQ(result->outcomes[4].attempts, 3);
  EXPECT_EQ(result->outcomes[6].state, PartitionState::kRecovered);
  EXPECT_EQ(result->outcomes[6].attempts, 2);
  EXPECT_EQ(result->outcomes[1].state, PartitionState::kScanned);
}

TEST_F(DistributedAnalyzeTest, SlowUnderTimeoutSucceedsFirstTry) {
  FaultPlan plan;
  plan.Set(3, FaultSpec::Slow(500, FaultSpec::kAlways));  // < 1000 ms budget
  DistributedAnalyzeOptions options = BaseOptions();
  options.faults = &plan;
  auto result = Run(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcomes[3].state, PartitionState::kScanned);
  EXPECT_EQ(result->outcomes[3].attempts, 1);
  ExpectIdenticalStats(*result, Baseline());
}

TEST_F(DistributedAnalyzeTest, PermanentFailureDegradesWithExactWidening) {
  const DistributedAnalyzeResult baseline = Baseline();

  FaultPlan plan;
  plan.Set(1, FaultSpec::FailAlways());
  plan.Set(5, FaultSpec::Truncate(FaultSpec::kAlways));
  DistributedAnalyzeOptions options = BaseOptions();
  options.faults = &plan;
  auto result = Run(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(result->degraded);
  EXPECT_TRUE(result->stats.degraded);
  const int64_t failed_rows =
      result->outcomes[1].rows + result->outcomes[5].rows;
  EXPECT_EQ(result->scanned_rows, kRows - failed_rows);
  EXPECT_EQ(result->stats.coverage,
            static_cast<double>(kRows - failed_rows) /
                static_cast<double>(kRows));
  // The widening is exactly the failed partitions' row count.
  EXPECT_EQ(result->stats.upper,
            result->scanned_bounds.upper + static_cast<double>(failed_rows));
  EXPECT_EQ(result->stats.lower, result->scanned_bounds.lower);
  // The degraded interval still brackets the true D.
  EXPECT_LE(result->stats.lower, static_cast<double>(actual_distinct_));
  EXPECT_GE(result->stats.upper, static_cast<double>(actual_distinct_));
  // Degradation must widen, never tighten, versus the complete run.
  EXPECT_GE(result->stats.upper, baseline.stats.upper);

  EXPECT_EQ(result->outcomes[1].state, PartitionState::kFailed);
  EXPECT_EQ(result->outcomes[1].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result->outcomes[1].attempts, 3);
  EXPECT_EQ(result->outcomes[5].state, PartitionState::kFailed);
  EXPECT_EQ(result->outcomes[5].status.code(), StatusCode::kDataLoss);
}

TEST_F(DistributedAnalyzeTest, AllPartitionsFailingIsATypedError) {
  FaultPlan plan;
  for (int p = 0; p < kPartitions; ++p) {
    plan.Set(p, FaultSpec::FailAlways());
  }
  DistributedAnalyzeOptions options = BaseOptions();
  options.faults = &plan;
  auto result = Run(options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("all 8 partitions failed"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(DistributedAnalyzeTest, PermanentFaultStatusCodesAreTyped) {
  struct Case {
    FaultSpec spec;
    StatusCode expected;
  };
  const std::vector<Case> cases = {
      {FaultSpec::FailAlways(), StatusCode::kUnavailable},
      {FaultSpec::Truncate(FaultSpec::kAlways), StatusCode::kDataLoss},
      {FaultSpec::Corrupt(FaultSpec::kAlways), StatusCode::kDataLoss},
      {FaultSpec::Slow(5000, FaultSpec::kAlways),
       StatusCode::kDeadlineExceeded},
  };
  for (const Case& test_case : cases) {
    FaultPlan plan;
    plan.Set(0, test_case.spec);
    DistributedAnalyzeOptions options = BaseOptions();
    options.faults = &plan;
    auto result = Run(options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->outcomes[0].state, PartitionState::kFailed);
    EXPECT_EQ(result->outcomes[0].status.code(), test_case.expected)
        << result->outcomes[0].status.ToString();
  }
}

TEST_F(DistributedAnalyzeTest, BackoffFollowsExponentialScheduleOnVirtualClock) {
  FaultPlan plan;
  plan.Set(0, FaultSpec::FailAlways());
  DistributedAnalyzeOptions options = BaseOptions();
  options.partitions = 1;
  options.faults = &plan;
  options.max_attempts = 4;
  options.backoff_base_ms = 100;
  options.backoff_max_ms = 300;
  const int64_t start = clock_.NowMillis();
  auto result = Run(options);
  EXPECT_FALSE(result.ok());
  // 3 retries: 100 + 200 + min(400, 300) = 600 ms of virtual backoff.
  EXPECT_EQ(clock_.NowMillis() - start, 600);
}

TEST_F(DistributedAnalyzeTest, CoordinatorDeadlineCutsOffPendingPartitions) {
  // threads = 1 runs partitions in order; partitions 0..2 scan cleanly in
  // zero virtual time, partition 3 burns the whole budget in backoff, and
  // partitions 4.. are cut off before their first attempt.
  FaultPlan plan;
  plan.Set(3, FaultSpec::FailAlways());
  DistributedAnalyzeOptions options = BaseOptions();
  options.faults = &plan;
  options.max_attempts = 10;
  options.backoff_base_ms = 100;
  options.backoff_max_ms = 10000;
  options.deadline_ms = 500;
  auto result = Run(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(result->outcomes[static_cast<size_t>(p)].state,
              PartitionState::kScanned)
        << "partition " << p;
  }
  EXPECT_EQ(result->outcomes[3].state, PartitionState::kFailed);
  int cut_off_before_first_attempt = 0;
  for (size_t p = 4; p < result->outcomes.size(); ++p) {
    const PartitionOutcome& outcome = result->outcomes[p];
    if (outcome.state == PartitionState::kFailed &&
        outcome.status.code() == StatusCode::kDeadlineExceeded &&
        outcome.attempts == 0) {
      ++cut_off_before_first_attempt;
    }
  }
  EXPECT_EQ(cut_off_before_first_attempt,
            static_cast<int>(result->outcomes.size()) - 4);
  // Whatever survived still yields a valid covering interval.
  EXPECT_LE(result->stats.lower, static_cast<double>(actual_distinct_));
  EXPECT_GE(result->stats.upper, static_cast<double>(actual_distinct_));
}

TEST_F(DistributedAnalyzeTest, DeadlineBeforeAnyAttemptIsATypedError) {
  VirtualClock late_clock(1000);
  DistributedAnalyzeOptions options = BaseOptions();
  options.clock = &late_clock;
  options.deadline_ms = 1;
  FaultPlan plan;
  plan.Set(0, FaultSpec::Slow(5, FaultSpec::kAlways));
  options.faults = &plan;
  options.threads = 1;
  // Partition 0's slow attempt pushes the clock past the deadline before
  // any other partition starts; with a 1 ms budget even partition 0's
  // retry window is gone. All partitions that never ran report
  // DeadlineExceeded.
  auto result = Run(options);
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  } else {
    EXPECT_TRUE(result->degraded);
  }
}

TEST_F(DistributedAnalyzeTest, InvalidOptionsAreTypedErrors) {
  {
    DistributedAnalyzeOptions options = BaseOptions();
    options.partitions = 0;
    EXPECT_EQ(Run(options).status().code(), StatusCode::kInvalidArgument);
  }
  {
    DistributedAnalyzeOptions options = BaseOptions();
    options.sample_rows = 0;
    EXPECT_EQ(Run(options).status().code(), StatusCode::kInvalidArgument);
  }
  {
    DistributedAnalyzeOptions options = BaseOptions();
    options.max_attempts = 0;
    EXPECT_EQ(Run(options).status().code(), StatusCode::kInvalidArgument);
  }
  {
    DistributedAnalyzeOptions options = BaseOptions();
    options.estimator = "no-such-estimator";
    EXPECT_EQ(Run(options).status().code(), StatusCode::kInvalidArgument);
  }
  {
    Int64Column empty((std::vector<int64_t>()));
    DistributedAnalyzeOptions options = BaseOptions();
    EXPECT_EQ(DistributedAnalyze(empty, "empty", options).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// The acceptance-criteria sweep: every seeded fault schedule must end in
// retry-success (bit-identical to fault-free), typed degradation (interval
// widened by exactly the failed partitions' rows, coverage < 1), or a
// typed error — never a crash.
TEST_F(DistributedAnalyzeTest, FaultMatrixSweepClassifiesEveryOutcome) {
  const DistributedAnalyzeResult baseline = Baseline();

  for (uint64_t seed = 0; seed < 50; ++seed) {
    const FaultPlan plan = FaultPlan::RandomSweep(seed, kPartitions);
    DistributedAnalyzeOptions options = BaseOptions();
    options.faults = &plan;
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + plan.ToString());

    // Predict which partitions fail permanently: a fault still active on
    // the last attempt, except slow faults whose delay fits the 1000 ms
    // attempt budget (those scans succeed, just late).
    std::set<int> expect_failed;
    for (int p = 0; p < kPartitions; ++p) {
      const FaultSpec last = plan.ActionFor(p, options.max_attempts - 1);
      if (last.kind == FaultKind::kNone) continue;
      if (last.kind == FaultKind::kSlow &&
          last.delay_ms < options.attempt_timeout_ms) {
        continue;
      }
      expect_failed.insert(p);
    }

    auto result = Run(options);
    if (expect_failed.size() == static_cast<size_t>(kPartitions)) {
      ASSERT_FALSE(result.ok());
      EXPECT_NE(result.status().code(), StatusCode::kOk);
      continue;
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    std::set<int> failed;
    int64_t failed_rows = 0;
    for (const PartitionOutcome& outcome : result->outcomes) {
      if (outcome.state == PartitionState::kFailed) {
        failed.insert(outcome.partition);
        failed_rows += outcome.rows;
        EXPECT_FALSE(outcome.status.ok());
      }
    }
    EXPECT_EQ(failed, expect_failed);

    if (failed.empty()) {
      // Retry-success: bit-identical to the fault-free run.
      EXPECT_FALSE(result->degraded);
      ExpectIdenticalStats(*result, baseline);
    } else {
      // Typed degradation: exact widening, coverage < 1, still covering.
      EXPECT_TRUE(result->degraded);
      EXPECT_LT(result->coverage, 1.0);
      EXPECT_EQ(result->coverage,
                static_cast<double>(kRows - failed_rows) /
                    static_cast<double>(kRows));
      EXPECT_EQ(result->stats.upper,
                result->scanned_bounds.upper +
                    static_cast<double>(failed_rows));
      EXPECT_LE(result->stats.lower, static_cast<double>(actual_distinct_));
      EXPECT_GE(result->stats.upper, static_cast<double>(actual_distinct_));
    }
  }
}

// Outcomes must not depend on the thread count (no deadline is set, so
// nothing in the run is time-sensitive).
TEST_F(DistributedAnalyzeTest, SweepOutcomesAreThreadCountIndependent) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const FaultPlan plan = FaultPlan::RandomSweep(seed, kPartitions);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + plan.ToString());

    DistributedAnalyzeOptions options = BaseOptions();
    options.faults = &plan;
    options.threads = 1;
    auto serial = Run(options);

    VirtualClock parallel_clock;
    options.clock = &parallel_clock;
    options.threads = 4;
    auto parallel = Run(options);

    ASSERT_EQ(serial.ok(), parallel.ok());
    if (!serial.ok()) {
      EXPECT_EQ(serial.status().code(), parallel.status().code());
      continue;
    }
    ExpectIdenticalStats(*serial, *parallel);
    for (int p = 0; p < kPartitions; ++p) {
      EXPECT_EQ(serial->outcomes[static_cast<size_t>(p)].state,
                parallel->outcomes[static_cast<size_t>(p)].state);
      EXPECT_EQ(serial->outcomes[static_cast<size_t>(p)].attempts,
                parallel->outcomes[static_cast<size_t>(p)].attempts);
    }
  }
}

// Degraded statistics survive the durable catalog: a compacted snapshot
// reopens with their coverage and degraded flag intact.
TEST_F(DistributedAnalyzeTest, DegradedStatsRoundTripThroughCatalog) {
  FaultPlan plan;
  plan.Set(0, FaultSpec::FailAlways());
  DistributedAnalyzeOptions options = BaseOptions();
  options.faults = &plan;
  auto result = Run(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::string dir = testing::TempDir() + "/distributed_degraded_wal";
  std::filesystem::remove_all(dir);
  {
    auto durable = DurableCatalog::Open({.dir = dir});
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    ASSERT_TRUE((*durable)->AppendPut(result->stats).ok());
    ASSERT_TRUE((*durable)->Compact().ok());
  }
  auto reopened = DurableCatalog::Open({.dir = dir});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery().snapshot_entries, 1);
  const std::optional<ColumnStats> stats = (*reopened)->state().Find("value");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->coverage, result->stats.coverage);
  EXPECT_TRUE(stats->degraded);
  EXPECT_EQ(stats->upper, result->stats.upper);
}

// More partitions than rows: five of the eight shards are empty. An empty
// shard draws an empty sample, which is a valid reply, so every partition
// counts as scanned and the run covers the whole column.
TEST_F(DistributedAnalyzeTest, MorePartitionsThanRowsScansEveryShard) {
  const Int64Column tiny({7, 7, 9});
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    DistributedAnalyzeOptions options = BaseOptions();
    options.partitions = 8;
    options.sample_rows = 5;
    options.threads = threads;
    auto result = DistributedAnalyze(tiny, "tiny", options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->outcomes.size(), size_t{8});
    for (const PartitionOutcome& outcome : result->outcomes) {
      EXPECT_EQ(outcome.state, PartitionState::kScanned);
    }
    EXPECT_EQ(result->coverage, 1.0);
    EXPECT_FALSE(result->degraded);
    EXPECT_EQ(result->stats.sample_rows, 3);
    EXPECT_EQ(result->stats.sample_distinct, 2);
    EXPECT_LE(result->stats.lower, 2.0);
    EXPECT_GE(result->stats.upper, 2.0);
  }
}

}  // namespace
}  // namespace ndv
