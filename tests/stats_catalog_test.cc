#include "catalog/stats_catalog.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/real_world_like.h"
#include "storage/pack_reader.h"
#include "storage/pack_writer.h"

namespace ndv {
namespace {

ColumnStats MakeStats(std::string name, double estimate = 100.0) {
  ColumnStats stats;
  stats.column_name = std::move(name);
  stats.table_rows = 10000;
  stats.sample_rows = 100;
  stats.sample_distinct = 80;
  stats.estimate = estimate;
  stats.lower = 80.0;
  stats.upper = 8000.0;
  stats.method = "AE";
  return stats;
}

TEST(StatsCatalogTest, PutAndFind) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("a"));
  catalog.Put(MakeStats("b", 55.0));
  ASSERT_TRUE(catalog.Find("a").has_value());
  ASSERT_TRUE(catalog.Find("b").has_value());
  EXPECT_FALSE(catalog.Find("missing").has_value());
  EXPECT_DOUBLE_EQ(catalog.Find("b")->estimate, 55.0);
}

TEST(StatsCatalogTest, PutReplacesExistingEntry) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("col", 10.0));
  catalog.Put(MakeStats("col", 20.0));
  EXPECT_EQ(catalog.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(catalog.Find("col")->estimate, 20.0);
}

// Regression: Find used to return a pointer into entries_, which a
// reallocating Put invalidated — a use-after-free under ASan. The by-value
// Find must keep a previously returned result intact through arbitrarily
// many inserts.
TEST(StatsCatalogTest, FindResultSurvivesReallocatingPuts) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("first", 42.0));
  const std::optional<ColumnStats> held = catalog.Find("first");
  ASSERT_TRUE(held.has_value());
  // Far past any plausible initial vector capacity: several reallocations.
  for (int i = 0; i < 1000; ++i) {
    catalog.Put(MakeStats("col_" + std::to_string(i), 1.0 + i));
  }
  EXPECT_EQ(held->column_name, "first");
  EXPECT_DOUBLE_EQ(held->estimate, 42.0);
  EXPECT_EQ(held->method, "AE");
  // The catalog itself still serves the original entry.
  EXPECT_DOUBLE_EQ(catalog.Find("first")->estimate, 42.0);
}

// Regression: repeated Put of the same column (re-ANALYZE) must update in
// place — last write wins — and never leave a duplicate or stale entry
// visible through Find, entries, or Serialize.
TEST(StatsCatalogTest, ReanalyzeNeverExposesDuplicateEntries) {
  StatsCatalog catalog;
  for (int round = 0; round < 5; ++round) {
    catalog.Put(MakeStats("col", 10.0 * (round + 1)));
    catalog.Put(MakeStats("other", 7.0));
  }
  EXPECT_EQ(catalog.entries().size(), 2u);
  EXPECT_DOUBLE_EQ(catalog.Find("col")->estimate, 50.0);

  const std::string text = catalog.Serialize();
  size_t col_lines = 0;
  size_t pos = 0;
  while ((pos = text.find("col|", pos)) != std::string::npos) {
    ++col_lines;
    pos += 4;
  }
  EXPECT_EQ(col_lines, 1u) << "duplicate serialized entries:\n" << text;
}

TEST(StatsCatalogTest, SelectivityIsInverseEstimate) {
  EXPECT_DOUBLE_EQ(MakeStats("x", 250.0).EstimatedSelectivity(), 1.0 / 250.0);
  EXPECT_DOUBLE_EQ(MakeStats("x", 0.0).EstimatedSelectivity(), 1.0);
}

// Serialize() is a write-only dump; its exact text is what `ndv_cli
// analyze --out` writes and what tests compare states by.
TEST(StatsCatalogTest, DumpsOneEscapedLinePerEntry) {
  EXPECT_EQ(StatsCatalog().Serialize(), "ndv-stats-v2\n");
  StatsCatalog catalog;
  ColumnStats stats = MakeStats("a|b%c\nd");
  stats.coverage = 0.75;
  stats.degraded = true;
  catalog.Put(stats);
  catalog.Put(MakeStats("plain", 3.25));
  EXPECT_EQ(catalog.Serialize(),
            "ndv-stats-v2\n"
            "a%7Cb%25c%0Ad|10000|100|80|100|80|8000|0.75|1|AE\n"
            "plain|10000|100|80|3.25|80|8000|1|0|AE\n");
}

TEST(AnalyzeTableTest, ProducesOneEntryPerColumn) {
  const Table census = MakeCensusLikeScaled(5000);
  AnalyzeOptions options;
  options.sample_fraction = 0.05;
  const StatsCatalog catalog = AnalyzeTable(census, options);
  EXPECT_EQ(catalog.entries().size(), 15u);
  const std::optional<ColumnStats> sex = catalog.Find("sex");
  ASSERT_TRUE(sex.has_value());
  EXPECT_EQ(sex->table_rows, 5000);
  EXPECT_NEAR(sex->estimate, 2.0, 0.5);
  EXPECT_LE(sex->lower, sex->estimate);
  EXPECT_GE(sex->upper, sex->estimate);
  EXPECT_EQ(sex->method, "AE");
}

TEST(AnalyzeTableTest, BoundsBracketTruthOnEveryColumn) {
  const Table census = MakeCensusLikeScaled(20000);
  AnalyzeOptions options;
  options.sample_fraction = 0.05;
  options.seed = 77;
  const StatsCatalog catalog = AnalyzeTable(census, options);
  for (int64_t c = 0; c < census.NumColumns(); ++c) {
    const double actual =
        static_cast<double>(ExactDistinctHashSet(census.column(c)));
    const std::optional<ColumnStats> stats = catalog.Find(census.column_name(c));
    ASSERT_TRUE(stats.has_value());
    EXPECT_LE(stats->lower, actual) << stats->column_name;
    EXPECT_GE(stats->upper, actual) << stats->column_name;
  }
}

TEST(AnalyzeTableTest, ExactModeRecordsGroundTruth) {
  const Table census = MakeCensusLikeScaled(5000);
  AnalyzeOptions options;
  options.exact = true;
  options.threads = 1;
  const StatsCatalog catalog = AnalyzeTable(census, options);
  ASSERT_EQ(catalog.entries().size(),
            static_cast<size_t>(census.NumColumns()));
  for (int64_t c = 0; c < census.NumColumns(); ++c) {
    const double actual =
        static_cast<double>(ExactDistinctHashSet(census.column(c)));
    const std::optional<ColumnStats> stats = catalog.Find(census.column_name(c));
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->method, "EXACT");
    EXPECT_EQ(stats->table_rows, census.column(c).size());
    EXPECT_EQ(stats->sample_rows, census.column(c).size());
    EXPECT_DOUBLE_EQ(stats->estimate, actual);
    EXPECT_DOUBLE_EQ(stats->lower, actual);
    EXPECT_DOUBLE_EQ(stats->upper, actual);
    EXPECT_EQ(stats->sample_distinct, static_cast<int64_t>(actual));
  }
}

TEST(AnalyzeTableTest, ExactModeIsThreadCountInvariant) {
  const Table census = MakeCensusLikeScaled(3000);
  AnalyzeOptions serial;
  serial.exact = true;
  serial.threads = 1;
  const StatsCatalog baseline = AnalyzeTable(census, serial);
  for (int threads : {2, 8}) {
    AnalyzeOptions options;
    options.exact = true;
    options.threads = threads;
    const StatsCatalog catalog = AnalyzeTable(census, options);
    EXPECT_EQ(catalog.Serialize(), baseline.Serialize())
        << "threads=" << threads;
  }
}

// A table of zero rows: one int64, one double and one string column.
Table MakeZeroRowTable() {
  Table table;
  table.AddColumn("ints",
                  std::make_unique<Int64Column>(std::vector<int64_t>{}));
  table.AddColumn("doubles",
                  std::make_unique<DoubleColumn>(std::vector<double>{}));
  table.AddColumn("strings", std::make_unique<StringColumn>(
                                 std::vector<std::string>{}));
  return table;
}

// `heap` packed and opened from an 8-byte-aligned in-memory image that the
// columns keep alive.
Table OpenAsPack(const Table& heap) {
  const std::string bytes = SerializePackV2(heap);
  auto words = std::make_shared<std::vector<uint64_t>>((bytes.size() + 7) / 8);
  std::memcpy(words->data(), bytes.data(), bytes.size());
  auto opened = OpenPackV2FromBytes(
      {reinterpret_cast<const uint8_t*>(words->data()), bytes.size()}, words);
  NDV_CHECK_MSG(opened.ok(), "%s", opened.status().ToString().c_str());
  return std::move(opened).value();
}

// A sampled ANALYZE has no row to draw from a zero-row column and knows
// its answer exactly, so it publishes what exact mode publishes, on heap
// and pack storage, at every thread count.
TEST(AnalyzeTableTest, ZeroRowColumnsPublishAsExactModeDoes) {
  const Table heap = MakeZeroRowTable();
  const Table pack = OpenAsPack(heap);
  for (const Table* table : {&heap, &pack}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(table == &heap ? "heap" : "pack") +
                   ", threads=" + std::to_string(threads));
      AnalyzeOptions exact;
      exact.exact = true;
      exact.threads = threads;
      AnalyzeOptions sampled;
      sampled.threads = threads;
      const StatsCatalog catalog = AnalyzeTable(*table, sampled);
      EXPECT_EQ(catalog.Serialize(), AnalyzeTable(*table, exact).Serialize());
      ASSERT_EQ(catalog.entries().size(), 3u);
      for (const ColumnStats& stats : catalog.entries()) {
        EXPECT_EQ(stats.table_rows, 0) << stats.column_name;
        EXPECT_EQ(stats.sample_rows, 0) << stats.column_name;
        EXPECT_EQ(stats.sample_distinct, 0) << stats.column_name;
        EXPECT_EQ(stats.estimate, 0.0) << stats.column_name;
        EXPECT_EQ(stats.lower, 0.0) << stats.column_name;
        EXPECT_EQ(stats.upper, 0.0) << stats.column_name;
      }
    }
  }
}

TEST(AnalyzeTableTest, UnknownEstimatorAborts) {
  const Table census = MakeCensusLikeScaled(100);
  AnalyzeOptions options;
  options.estimator = "NotReal";
  EXPECT_DEATH(AnalyzeTable(census, options), "unknown estimator");
}

}  // namespace
}  // namespace ndv
