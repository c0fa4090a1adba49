// Estimation across heterogeneous column types: the estimator stack sees
// only hashes, so int64, double, and dictionary-string columns must all
// behave identically given the same frequency structure.
// Parameterized over (column kind, paper estimator).

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/descriptive.h"
#include "core/all_estimators.h"
#include "core/gee.h"
#include "datagen/string_data.h"
#include "datagen/synthetic_table.h"
#include "datagen/zipf.h"
#include "table/column_sampling.h"
#include "table/table.h"

namespace ndv {
namespace {

// Holds a column of any kind plus its exact distinct count.
struct ColumnCase {
  std::unique_ptr<Column> column;
  std::unique_ptr<Table> backing;  // owns the double_normal column
  int64_t actual = 0;
};

ColumnCase MakeCase(const std::string& kind) {
  ColumnCase result;
  if (kind == "int_zipf") {
    ZipfColumnOptions options;
    options.rows = 100000;
    options.z = 1.0;
    options.dup_factor = 20;
    result.column = MakeZipfColumn(options);
  } else if (kind == "string_emails") {
    StringColumnOptions options;
    options.rows = 100000;
    options.distinct = 3000;
    options.z = 1.0;
    options.shape = StringShape::kEmails;
    result.column = MakeStringColumn(options);
  } else if (kind == "double_normal") {
    const std::vector<ColumnSpec> specs = {
        ColumnSpec::Normal("v", 500.0, 120.0)};
    result.backing =
        std::make_unique<Table>(MakeSyntheticTable(100000, specs, 5));
    // Re-wrap as DoubleColumn semantics via the backing table's column.
    result.actual = ExactDistinctHashSet(result.backing->column(0));
  }
  if (result.column != nullptr) {
    result.actual = ExactDistinctHashSet(*result.column);
  }
  return result;
}

const Column& CaseColumn(const ColumnCase& c) {
  return c.column != nullptr ? *c.column : c.backing->column(0);
}

class HeterogeneousColumnTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(HeterogeneousColumnTest, SanityAndIntervalCoverage) {
  const auto [kind, estimator_name] = GetParam();
  const ColumnCase test_case = MakeCase(kind);
  const Column& column = CaseColumn(test_case);
  const auto estimator = MakeEstimatorByName(estimator_name);
  ASSERT_NE(estimator, nullptr);

  Rng rng(31);
  RunningStats errors;
  int covered = 0;
  constexpr int kTrials = 5;
  for (int t = 0; t < kTrials; ++t) {
    const SampleSummary summary = SampleColumnFraction(column, 0.05, rng);
    const double estimate = estimator->Estimate(summary);
    EXPECT_GE(estimate, static_cast<double>(summary.d()));
    EXPECT_LE(estimate, static_cast<double>(summary.n()));
    errors.Add(
        RatioError(estimate, static_cast<double>(test_case.actual)));
    const GeeBounds bounds = ComputeGeeBounds(summary);
    if (bounds.lower <= static_cast<double>(test_case.actual) &&
        static_cast<double>(test_case.actual) <= bounds.upper) {
      ++covered;
    }
  }
  // 5% samples of friendly data: paper estimators stay within 4x.
  EXPECT_LE(errors.mean(), 4.0) << kind << "/" << estimator_name;
  EXPECT_GE(covered, kTrials - 1) << kind;
}

INSTANTIATE_TEST_SUITE_P(
    KindsByEstimators, HeterogeneousColumnTest,
    ::testing::Combine(::testing::Values("int_zipf", "string_emails",
                                         "double_normal"),
                       ::testing::Values("GEE", "AE", "HYBGEE", "HYBSKEW",
                                         "DUJ2A")),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
           param_info) {
      std::string name =
          std::get<0>(param_info.param) + "_" + std::get<1>(param_info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ndv
