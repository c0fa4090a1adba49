#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/all_estimators.h"
#include "datagen/zipf.h"
#include "estimators/method_of_moments.h"
#include "harness/figures.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "table/table.h"

namespace ndv {
namespace {

std::unique_ptr<Int64Column> TestColumn() {
  ZipfColumnOptions options;
  options.rows = 10000;
  options.z = 1.0;
  options.seed = 5;
  return MakeZipfColumn(options);
}

TEST(RunTrialsTest, AggregatesAreConsistent) {
  const auto column = TestColumn();
  const int64_t actual = ExactDistinctHashSet(*column);
  RunOptions options;
  options.trials = 10;
  const NaiveScaleUp estimator;
  const EstimatorAggregate aggregate =
      RunTrials(*column, actual, 0.05, estimator, options);
  EXPECT_EQ(aggregate.estimator, "Naive");
  EXPECT_EQ(aggregate.actual_distinct, actual);
  EXPECT_DOUBLE_EQ(aggregate.sampling_fraction, 0.05);
  EXPECT_GE(aggregate.mean_ratio_error, 1.0);
  EXPECT_GE(aggregate.max_ratio_error, aggregate.mean_ratio_error);
  EXPECT_GE(aggregate.stddev_fraction, 0.0);
  EXPECT_GT(aggregate.mean_estimate, 0.0);
}

TEST(RunTrialsTest, DeterministicInSeed) {
  const auto column = TestColumn();
  const int64_t actual = ExactDistinctHashSet(*column);
  RunOptions options;
  options.seed = 42;
  const NaiveScaleUp estimator;
  const EstimatorAggregate a =
      RunTrials(*column, actual, 0.02, estimator, options);
  const EstimatorAggregate b =
      RunTrials(*column, actual, 0.02, estimator, options);
  EXPECT_DOUBLE_EQ(a.mean_estimate, b.mean_estimate);
  EXPECT_DOUBLE_EQ(a.mean_ratio_error, b.mean_ratio_error);
  options.seed = 43;
  const EstimatorAggregate c =
      RunTrials(*column, actual, 0.02, estimator, options);
  EXPECT_NE(a.mean_estimate, c.mean_estimate);
}

TEST(RunTrialsTest, FullScanHasZeroErrorAndVariance) {
  const auto column = TestColumn();
  const int64_t actual = ExactDistinctHashSet(*column);
  RunOptions options;
  const NaiveScaleUp estimator;
  const EstimatorAggregate aggregate =
      RunTrials(*column, actual, 1.0, estimator, options);
  EXPECT_DOUBLE_EQ(aggregate.mean_ratio_error, 1.0);
  EXPECT_DOUBLE_EQ(aggregate.stddev_fraction, 0.0);
}

TEST(RunTrialsAllEstimatorsTest, ThreadCountDoesNotChangeResults) {
  // The determinism contract: per-trial RNGs are pre-forked sequentially
  // from the seed and merged in trial order, so serial and parallel runs
  // produce bit-identical statistics.
  const auto column = TestColumn();
  const int64_t actual = ExactDistinctHashSet(*column);
  auto estimators = MakePaperComparisonEstimators();
  RunOptions serial;
  serial.trials = 12;
  serial.seed = 77;
  serial.threads = 1;
  RunOptions parallel = serial;
  parallel.threads = 8;
  const auto a =
      RunTrialsAllEstimators(*column, actual, 0.03, estimators, serial);
  const auto b =
      RunTrialsAllEstimators(*column, actual, 0.03, estimators, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].estimator, b[i].estimator);
    EXPECT_EQ(a[i].actual_distinct, b[i].actual_distinct);
    // Exact (bitwise) equality, not near-equality.
    EXPECT_EQ(a[i].mean_estimate, b[i].mean_estimate);
    EXPECT_EQ(a[i].mean_ratio_error, b[i].mean_ratio_error);
    EXPECT_EQ(a[i].max_ratio_error, b[i].max_ratio_error);
    EXPECT_EQ(a[i].stddev_fraction, b[i].stddev_fraction);
  }
}

TEST(RunTrialsAllEstimatorsTest, RecordsWallClockTiming) {
  const auto column = TestColumn();
  const int64_t actual = ExactDistinctHashSet(*column);
  auto estimators = MakePaperComparisonEstimators();
  RunOptions options;
  options.trials = 4;
  const auto aggregates =
      RunTrialsAllEstimators(*column, actual, 0.05, estimators, options);
  ASSERT_FALSE(aggregates.empty());
  for (const auto& aggregate : aggregates) {
    EXPECT_GE(aggregate.estimate_ms, 0.0);
    EXPECT_GT(aggregate.cell_wall_ms, 0.0);
    // The cell wall-clock is shared by every estimator of the cell.
    EXPECT_EQ(aggregate.cell_wall_ms, aggregates[0].cell_wall_ms);
  }
}

TEST(RunSweepTest, FractionMajorOrdering) {
  const auto column = TestColumn();
  const int64_t actual = ExactDistinctHashSet(*column);
  const std::vector<double> fractions = {0.01, 0.05};
  auto estimators = MakePaperComparisonEstimators();
  RunOptions options;
  options.trials = 2;
  const auto results =
      RunSweep(*column, actual, fractions, estimators, options);
  ASSERT_EQ(results.size(), fractions.size() * estimators.size());
  EXPECT_DOUBLE_EQ(results[0].sampling_fraction, 0.01);
  EXPECT_EQ(results[0].estimator, "GEE");
  EXPECT_DOUBLE_EQ(results[estimators.size()].sampling_fraction, 0.05);
}

TEST(RunTableSweepTest, AveragesOverColumns) {
  Table table;
  {
    ZipfColumnOptions options;
    options.rows = 5000;
    options.z = 1.0;
    table.AddColumn("zipf", MakeZipfColumn(options));
    options.z = 0.0;
    options.seed = 9;
    table.AddColumn("uniform", MakeZipfColumn(options));
  }
  auto estimators = MakePaperComparisonEstimators();
  RunOptions options;
  options.trials = 3;
  const auto results =
      RunTableSweep(table, {0.05}, estimators, options);
  ASSERT_EQ(results.size(), estimators.size());
  for (const auto& aggregate : results) {
    EXPECT_GE(aggregate.mean_ratio_error, 1.0);
    EXPECT_GE(aggregate.mean_stddev_fraction, 0.0);
  }
}

TEST(RunTableSweepTest, ParallelExecutionMatchesSerial) {
  // threads must not change results: per-column seeds are pre-derived.
  Table table;
  {
    ZipfColumnOptions options;
    options.rows = 5000;
    for (int c = 0; c < 6; ++c) {
      options.z = static_cast<double>(c % 3);
      options.seed = static_cast<uint64_t>(c) + 1;
      table.AddColumn('c' + std::to_string(c), MakeZipfColumn(options));
    }
  }
  auto estimators = MakePaperComparisonEstimators();
  RunOptions serial;
  serial.trials = 3;
  RunOptions parallel = serial;
  parallel.threads = 4;
  const auto serial_results =
      RunTableSweep(table, {0.02, 0.1}, estimators, serial);
  const auto parallel_results =
      RunTableSweep(table, {0.02, 0.1}, estimators, parallel);
  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial_results[i].mean_ratio_error,
                     parallel_results[i].mean_ratio_error);
    EXPECT_DOUBLE_EQ(serial_results[i].mean_stddev_fraction,
                     parallel_results[i].mean_stddev_fraction);
  }
}

TEST(PaperSamplingFractionsTest, SixPointsDoubling) {
  const auto& fractions = PaperSamplingFractions();
  ASSERT_EQ(fractions.size(), 6u);
  EXPECT_DOUBLE_EQ(fractions.front(), 0.002);
  EXPECT_DOUBLE_EQ(fractions.back(), 0.064);
  for (size_t i = 1; i < fractions.size(); ++i) {
    EXPECT_NEAR(fractions[i] / fractions[i - 1], 2.0, 1e-12);
  }
}

TEST(TextTableTest, AlignedOutput) {
  TextTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22.5"});
  std::ostringstream out;
  table.Print(out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("| name  | value |"), std::string::npos);
  EXPECT_NE(rendered.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(rendered.find("| b     | 22.5  |"), std::string::npos);
}

TEST(TextTableTest, CsvEscaping) {
  TextTable table({"a", "b"});
  table.AddRow({"x,y", "quote\"inside"});
  std::ostringstream out;
  table.PrintCsv(out);
  EXPECT_EQ(out.str(), "a,b\n\"x,y\",\"quote\"\"inside\"\n");
}

TEST(TextTableTest, RowArityEnforced) {
  TextTable table({"only"});
  EXPECT_DEATH(table.AddRow({"too", "many"}), "size");
}

TEST(FormatDoubleTest, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(1.5, 3), "1.5");
  EXPECT_EQ(FormatDouble(2.0, 3), "2");
  EXPECT_EQ(FormatDouble(1.2345, 2), "1.23");
  EXPECT_EQ(FormatDouble(0.0, 3), "0");
}

TEST(FractionLabelTest, Percentages) {
  EXPECT_EQ(FractionLabel(0.008), "0.8%");
  EXPECT_EQ(FractionLabel(0.064), "6.4%");
  EXPECT_EQ(FractionLabel(0.5), "50%");
}

TEST(MakeFigureTableTest, GridShape) {
  const auto column = TestColumn();
  const int64_t actual = ExactDistinctHashSet(*column);
  auto estimators = MakePaperComparisonEstimators();
  RunOptions options;
  options.trials = 2;
  const std::vector<double> fractions = {0.01, 0.02};
  const auto results =
      RunSweep(*column, actual, fractions, estimators, options);
  const TextTable table = MakeFigureTable(
      results, {"1%", "2%"}, "rate",
      [](const EstimatorAggregate& a) { return a.mean_ratio_error; });
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("rate"), std::string::npos);
  EXPECT_NE(out.str().find("GEE"), std::string::npos);
  EXPECT_NE(out.str().find("HYBGEE"), std::string::npos);
}

TEST(MakeTimingTableTest, GridShapeWithCellWallColumn) {
  const auto column = TestColumn();
  const int64_t actual = ExactDistinctHashSet(*column);
  auto estimators = MakePaperComparisonEstimators();
  RunOptions options;
  options.trials = 2;
  const auto results =
      RunSweep(*column, actual, {0.01, 0.02}, estimators, options);
  const TextTable table = MakeTimingTable(results, {"1%", "2%"}, "rate");
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("rate"), std::string::npos);
  EXPECT_NE(out.str().find("GEE (ms)"), std::string::npos);
  EXPECT_NE(out.str().find("cell wall (ms)"), std::string::npos);
}

TEST(AllEstimatorsRegistryTest, PaperSetAndFullSet) {
  EXPECT_EQ(MakePaperComparisonEstimators().size(), 6u);
  const auto all = MakeAllEstimators();
  EXPECT_GE(all.size(), 25u);
  EXPECT_NE(MakeEstimatorByName("GEE"), nullptr);
  EXPECT_NE(MakeEstimatorByName("AE"), nullptr);
  EXPECT_NE(MakeEstimatorByName("HYBGEE"), nullptr);
  EXPECT_NE(MakeEstimatorByName("Shlosser"), nullptr);
  EXPECT_EQ(MakeEstimatorByName("bogus"), nullptr);
}

}  // namespace
}  // namespace ndv
