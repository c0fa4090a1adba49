// StatsMaintainer and the drift trigger (DESIGN.md §17). The boundary
// semantics of DriftTriggerFires are pinned exactly (drift == width must
// NOT fire; any drift against a zero-width exact interval must), and the
// acceptance scenario replays a real append stream end to end: every
// incrementally published GEE estimate stays inside its published
// [LOWER, UPPER] bracket, the drift trigger fires when the sketch escapes
// the baseline interval, and the re-ANALYZE it schedules restores a fresh
// baseline with near-zero drift.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/concurrent_catalog.h"
#include "catalog/stats_catalog.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "ingest/maintenance.h"
#include "storage/materialize.h"
#include "table/column.h"
#include "table/table.h"

namespace ndv {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(DriftTriggerTest, ExactBoundarySemantics) {
  // drift == width does not fire: the running estimate may still sit on
  // the bracket's edge. Strictly exceeding it does.
  EXPECT_FALSE(DriftTriggerFires(100.0, 100.0));
  EXPECT_TRUE(DriftTriggerFires(100.0 + 1e-9, 100.0));
  EXPECT_FALSE(DriftTriggerFires(99.999, 100.0));

  // Zero-width (exact-mode) interval: any positive drift fires, zero
  // drift does not.
  EXPECT_FALSE(DriftTriggerFires(0.0, 0.0));
  EXPECT_TRUE(DriftTriggerFires(1e-12, 0.0));

  // A wide (degraded, low-information) interval tolerates drift a tight
  // one would fire on.
  EXPECT_TRUE(DriftTriggerFires(500.0, 10.0));
  EXPECT_FALSE(DriftTriggerFires(500.0, 1e6));

  // A never-fresh tracker reports infinite drift: fires against any
  // finite tolerance, but not against an infinite (no-baseline) one.
  EXPECT_TRUE(DriftTriggerFires(kInf, 1e308));
  EXPECT_FALSE(DriftTriggerFires(kInf, kInf));
}

// ---------------------------------------------------------------------------
// Maintainer scenarios over fabricated baselines (the callback returns a
// hand-built catalog, so tolerances are exact and the tests are sharp).

ColumnStats MakeStats(const std::string& name, double lower, double upper) {
  ColumnStats stats;
  stats.column_name = name;
  stats.estimate = (lower + upper) / 2;
  stats.lower = lower;
  stats.upper = upper;
  stats.table_rows = 1000;
  stats.sample_rows = 1000;
  stats.sample_distinct = static_cast<int64_t>(stats.estimate);
  stats.method = "test";
  return stats;
}

StatsCatalog OneColumnCatalog(const std::string& name, double lower,
                              double upper) {
  StatsCatalog catalog;
  catalog.Put(MakeStats(name, lower, upper));
  return catalog;
}

std::vector<uint64_t> NovelHashes(uint64_t tag, int64_t count) {
  std::vector<uint64_t> hashes;
  hashes.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    hashes.push_back(Hash64((tag << 32) + static_cast<uint64_t>(i) + 1));
  }
  return hashes;
}

StatsMaintainerOptions SyncOptions() {
  StatsMaintainerOptions options;
  options.background = false;
  return options;
}

TEST(StatsMaintainerTest, ZeroWidthBaselineFiresOnAnyDriftButNotOnNone) {
  // An exact (zero-width) published interval: tolerance 0.
  ConcurrentStatsCatalog catalog(OneColumnCatalog("c", 500.0, 500.0));
  int64_t reanalyzes = 0;
  StatsMaintainer maintainer(
      &catalog,
      [&]() -> StatusOr<StatsCatalog> {
        ++reanalyzes;
        return OneColumnCatalog("c", 600.0, 600.0);
      },
      SyncOptions());

  const auto base = NovelHashes(1, 500);
  maintainer.Track("c", ColumnSlice{});  // warmed below through appends
  EXPECT_EQ(maintainer.Tolerance("c"), 0.0);

  // First batch establishes tracker content; duplicates of it leave the
  // sketch estimate EXACTLY unchanged, so drift == 0 == tolerance: the
  // boundary case must not fire.
  maintainer.AppendHashes("c", base);
  ASSERT_GE(maintainer.counters().drift_fires, 0);
  const int64_t fires_after_first = maintainer.counters().drift_fires;
  maintainer.AppendHashes("c", base);  // pure duplicates
  EXPECT_EQ(maintainer.Drift("c"), 0.0);
  EXPECT_EQ(maintainer.counters().drift_fires, fires_after_first);

  // One genuinely novel value moves the sketch: any drift > 0 fires
  // against the zero-width baseline.
  maintainer.AppendHashes("c", NovelHashes(2, 64));
  EXPECT_GT(maintainer.counters().drift_fires, fires_after_first);
  EXPECT_EQ(reanalyzes, static_cast<int64_t>(
                            maintainer.counters().drift_fires));
}

TEST(StatsMaintainerTest, WideBaselineToleratesDriftATightOneFiresOn) {
  const auto base = NovelHashes(3, 2000);
  const auto novel = NovelHashes(4, 3000);

  const auto run = [&](double width) -> MaintainerCounters {
    ConcurrentStatsCatalog catalog(
        OneColumnCatalog("c", 2000.0, 2000.0 + width));
    StatsMaintainer maintainer(
        &catalog,
        [&]() -> StatusOr<StatsCatalog> {
          return OneColumnCatalog("c", 5000.0, 5000.0 + width);
        },
        SyncOptions());
    maintainer.Track("c", ColumnSlice{});
    maintainer.AppendHashes("c", base);
    // Baseline is set at Track time (before the appends), so ~5000 rows
    // of novel values put thousands of units of drift on the sketch.
    maintainer.AppendHashes("c", novel);
    return maintainer.counters();
  };

  // Tight interval (width 100): the novel stream escapes it → fires.
  EXPECT_GE(run(100.0).drift_fires, 1);
  // Degraded-ANALYZE-style interval (width 10^6): same appends, no fire —
  // a low-information bracket tolerates far more drift.
  EXPECT_EQ(run(1e6).drift_fires, 0);
}

TEST(StatsMaintainerTest, DegradedReanalyzeWidensToleranceAndCalmsTrigger) {
  // The re-ANALYZE that answers the first fire is itself degraded
  // (partition loss): it publishes a much wider interval. Afterwards the
  // same kind of drift that fired before must be absorbed.
  ConcurrentStatsCatalog catalog(OneColumnCatalog("c", 1000.0, 1010.0));
  StatsMaintainer maintainer(
      &catalog,
      [&]() -> StatusOr<StatsCatalog> {
        StatsCatalog fresh = OneColumnCatalog("c", 1000.0, 50000.0);
        return fresh;  // degraded: coverage lost, bracket wide open
      },
      SyncOptions());
  maintainer.Track("c", ColumnSlice{});
  maintainer.AppendHashes("c", NovelHashes(5, 1000));
  maintainer.AppendHashes("c", NovelHashes(6, 1000));
  const MaintainerCounters after_fire = maintainer.counters();
  ASSERT_GE(after_fire.drift_fires, 1);
  ASSERT_GE(after_fire.reanalyzes, 1);
  EXPECT_EQ(maintainer.Tolerance("c"), 49000.0);

  // More novel appends of the same magnitude: drift restarts from the
  // adopted baseline and stays far inside the widened bracket.
  maintainer.AppendHashes("c", NovelHashes(7, 1000));
  EXPECT_EQ(maintainer.counters().drift_fires, after_fire.drift_fires);
  EXPECT_LT(maintainer.Drift("c"), maintainer.Tolerance("c"));
}

TEST(StatsMaintainerTest, FirstPublicationEstablishesBaseline) {
  // A column the initial ANALYZE never saw: no published entry at Track
  // time, so the first incremental publication becomes the baseline.
  ConcurrentStatsCatalog catalog;
  StatsMaintainer maintainer(
      &catalog,
      []() -> StatusOr<StatsCatalog> { return StatsCatalog{}; },
      SyncOptions());
  maintainer.Track("fresh_column", ColumnSlice{});
  EXPECT_EQ(maintainer.Tolerance("fresh_column"), kInf);
  maintainer.AppendHashes("fresh_column", NovelHashes(8, 100));
  const auto published = catalog.Find("fresh_column");
  ASSERT_TRUE(published.has_value());
  EXPECT_EQ(maintainer.Tolerance("fresh_column"),
            published->upper - published->lower);
  EXPECT_EQ(maintainer.Drift("fresh_column"), 0.0);
  EXPECT_EQ(maintainer.counters().drift_fires, 0);
}

TEST(StatsMaintainerTest, EmptyAppendToBornEmptyColumnPublishesNothing) {
  // Regression: a zero-row Track followed by an empty batch used to abort
  // in the reservoir snapshot ("no rows observed yet").
  ConcurrentStatsCatalog catalog(OneColumnCatalog("other", 10.0, 20.0));
  StatsMaintainer maintainer(
      &catalog,
      []() -> StatusOr<StatsCatalog> { return StatsCatalog{}; },
      SyncOptions());
  const Int64Column empty(std::vector<int64_t>{});
  maintainer.Track("born_empty", FullColumnSlice(empty));
  const uint64_t before = catalog.epoch();

  EXPECT_EQ(maintainer.AppendHashes("born_empty", {}), before);
  EXPECT_EQ(maintainer.Append("born_empty", FullColumnSlice(empty)), before);
  EXPECT_EQ(catalog.epoch(), before);
  EXPECT_FALSE(catalog.Find("born_empty").has_value());
  EXPECT_EQ(maintainer.counters().appends, 2);
  EXPECT_EQ(maintainer.counters().publications, 0);
  EXPECT_EQ(maintainer.Tolerance("born_empty"), kInf);

  // The first real row publishes and becomes the drift baseline.
  const uint64_t first =
      maintainer.AppendHashes("born_empty", NovelHashes(11, 10));
  EXPECT_GT(first, before);
  ASSERT_TRUE(catalog.Find("born_empty").has_value());
  EXPECT_EQ(maintainer.counters().publications, 1);
  EXPECT_EQ(maintainer.Drift("born_empty"), 0.0);
}

TEST(StatsMaintainerTest, ReanalyzeFailureIsRecordedAndRetriable) {
  ConcurrentStatsCatalog catalog(OneColumnCatalog("c", 100.0, 100.0));
  int64_t calls = 0;
  StatsMaintainer maintainer(
      &catalog,
      [&]() -> StatusOr<StatsCatalog> {
        ++calls;
        if (calls == 1) return UnavailableError("partitions unreachable");
        return OneColumnCatalog("c", 200.0, 210.0);
      },
      SyncOptions());
  maintainer.Track("c", ColumnSlice{});
  // The zero-width baseline means the first novel batch already fires —
  // and the first callback invocation fails.
  maintainer.AppendHashes("c", NovelHashes(9, 100));
  const MaintainerCounters after_failure = maintainer.counters();
  ASSERT_GE(after_failure.reanalyze_failures, 1);
  EXPECT_FALSE(maintainer.last_reanalyze_status().ok());
  EXPECT_EQ(maintainer.last_reanalyze_status().code(),
            StatusCode::kUnavailable);

  // The failed attempt cleared the in-flight flag and did NOT reset the
  // baseline, so continued drift fires again — and this time succeeds.
  maintainer.AppendHashes("c", NovelHashes(10, 200));
  EXPECT_GE(maintainer.counters().reanalyzes, 1);
  EXPECT_TRUE(maintainer.last_reanalyze_status().ok());
}

TEST(StatsMaintainerTest, BackgroundReanalyzeCompletesUnderConcurrentAppends) {
  // Background mode on the shared pool with appends racing the re-ANALYZE:
  // under TSan this is the data-race proof for the maintainer's locking.
  ConcurrentStatsCatalog catalog(OneColumnCatalog("c", 10.0, 11.0));
  StatsMaintainerOptions options;
  options.background = true;
  StatsMaintainer maintainer(
      &catalog,
      [&]() -> StatusOr<StatsCatalog> {
        return OneColumnCatalog("c", 1000.0, 900000.0);
      },
      options);
  maintainer.Track("c", ColumnSlice{});
  ParallelFor(8, 4, [&](int64_t task) {
    maintainer.AppendHashes(
        "c", NovelHashes(100 + static_cast<uint64_t>(task), 500));
  });
  maintainer.WaitForReanalyze();
  const MaintainerCounters counters = maintainer.counters();
  EXPECT_EQ(counters.appends, 8);
  EXPECT_EQ(counters.rows_appended, 4000);
  EXPECT_GE(counters.drift_fires, 1);
  EXPECT_EQ(counters.reanalyzes + counters.reanalyze_failures,
            counters.drift_fires);
  EXPECT_TRUE(maintainer.last_reanalyze_status().ok());
}

// ---------------------------------------------------------------------------
// The acceptance scenario: a real append stream over a real table, GEE
// estimator, inline re-ANALYZE — published estimates bracketed throughout,
// drift trigger firing, baseline restored.

TEST(StatsMaintainerScenarioTest, AppendStreamStaysBracketedAndRecovers) {
  // Base table: 30k rows over 1k distinct values.
  Rng rng(13);
  std::vector<int64_t> base_values;
  for (int i = 0; i < 30000; ++i) {
    base_values.push_back(static_cast<int64_t>(rng.NextBounded(1000)));
  }
  Table base;
  base.AddColumn("value", std::make_unique<Int64Column>(base_values));

  // Append stream: 20k rows over 20k NOVEL values — the true cardinality
  // grows ~20x, so statistics from the initial ANALYZE must go stale.
  std::vector<int64_t> append_values;
  for (int i = 0; i < 20000; ++i) {
    append_values.push_back(1000 + static_cast<int64_t>(rng.NextBounded(
                                       20000)));
  }
  Int64Column append_column(append_values);

  AnalyzeOptions analyze;
  analyze.estimator = "GEE";
  analyze.sample_fraction = 0.05;
  analyze.seed = 3;
  ConcurrentStatsCatalog catalog(AnalyzeTable(base, analyze));
  const auto initial = catalog.Find("value");
  ASSERT_TRUE(initial.has_value());

  // The re-ANALYZE callback rebuilds base + appended-prefix and scans it —
  // the same shape the ndv_cli ingest subcommand uses.
  int64_t appended_rows = 0;
  StatsMaintainer maintainer(
      &catalog,
      [&]() -> StatusOr<StatsCatalog> {
        auto prefix =
            MaterializeColumnSlice(append_column, 0, appended_rows);
        NDV_RETURN_IF_ERROR(prefix.status());
        Table appended;
        appended.AddColumn("value", *std::move(prefix));
        auto combined = ConcatTables(base, appended);
        NDV_RETURN_IF_ERROR(combined.status());
        return AnalyzeTable(*combined, analyze);
      },
      SyncOptions());
  maintainer.Track("value", FullColumnSlice(base.column(0)));
  EXPECT_EQ(maintainer.Tolerance("value"),
            initial->upper - initial->lower);

  constexpr int64_t kBatchRows = 1000;
  uint64_t last_epoch = catalog.epoch();
  for (int64_t begin = 0; begin < append_column.size();
       begin += kBatchRows) {
    const int64_t end =
        std::min(begin + kBatchRows, append_column.size());
    appended_rows = end;  // the inline re-ANALYZE covers this batch
    const uint64_t epoch =
        maintainer.Append("value", ColumnSlice{&append_column, begin, end});
    EXPECT_GT(epoch, last_epoch);  // every batch publishes a new epoch
    last_epoch = catalog.epoch();

    // The published incremental estimate sits inside the published GEE
    // bracket at every step of the stream.
    const auto published = catalog.Find("value");
    ASSERT_TRUE(published.has_value());
    EXPECT_LE(published->lower, published->estimate);
    EXPECT_GE(published->upper, published->estimate);
    // And the published statistics cover the appended rows.
    EXPECT_EQ(published->table_rows, 30000 + appended_rows);
  }

  // The ~20x cardinality growth escaped the initial bracket: the trigger
  // fired and the inline re-ANALYZE succeeded.
  const MaintainerCounters counters = maintainer.counters();
  EXPECT_GE(counters.drift_fires, 1);
  EXPECT_GE(counters.reanalyzes, 1);
  EXPECT_EQ(counters.appends, 20);
  EXPECT_EQ(counters.rows_appended, 20000);
  EXPECT_EQ(counters.publications, 20);
  EXPECT_TRUE(maintainer.last_reanalyze_status().ok());

  // The adopted baseline is tight again: drift since the last re-ANALYZE
  // is far inside the tolerance the fresh interval grants.
  EXPECT_LT(maintainer.Drift("value"), maintainer.Tolerance("value"));
  // The final published statistics reflect the full stream.
  const auto final_stats = catalog.Find("value");
  ASSERT_TRUE(final_stats.has_value());
  EXPECT_EQ(final_stats->table_rows, 50000);
}

}  // namespace
}  // namespace ndv
