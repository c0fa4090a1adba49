#include <gtest/gtest.h>

#include "datagen/real_world_like.h"
#include "datagen/synthetic_table.h"
#include "table/table.h"

namespace ndv {
namespace {

TEST(SyntheticTableTest, SpecsShapeTheTable) {
  const std::vector<ColumnSpec> specs = {
      ColumnSpec::Uniform("u", 10),
      ColumnSpec::Zipf("z", 100, 1.5),
      ColumnSpec::Unique("id"),
      ColumnSpec::Normal("n", 50.0, 5.0),
      ColumnSpec::Constant("c"),
  };
  const Table table = MakeSyntheticTable(5000, specs, 42);
  EXPECT_EQ(table.NumRows(), 5000);
  EXPECT_EQ(table.NumColumns(), 5);
  EXPECT_EQ(table.column_name(2), "id");

  // Uniform over 10 values: all 10 present at this row count.
  EXPECT_EQ(ExactDistinctHashSet(table.column(0)), 10);
  // Zipf over 100: many but not necessarily all present.
  EXPECT_LE(ExactDistinctHashSet(table.column(1)), 100);
  EXPECT_GE(ExactDistinctHashSet(table.column(1)), 30);
  // Unique: every row distinct.
  EXPECT_EQ(ExactDistinctHashSet(table.column(2)), 5000);
  // Normal(50, 5): roughly 6 sigma of integer bins.
  const int64_t normal_distinct = ExactDistinctHashSet(table.column(3));
  EXPECT_GE(normal_distinct, 20);
  EXPECT_LE(normal_distinct, 60);
  // Constant: one value.
  EXPECT_EQ(ExactDistinctHashSet(table.column(4)), 1);
}

TEST(SyntheticTableTest, DeterministicInSeed) {
  const std::vector<ColumnSpec> specs = {ColumnSpec::Uniform("u", 50)};
  const Table a = MakeSyntheticTable(100, specs, 7);
  const Table b = MakeSyntheticTable(100, specs, 7);
  const Table c = MakeSyntheticTable(100, specs, 8);
  int same_ab = 0;
  int same_ac = 0;
  for (int64_t row = 0; row < 100; ++row) {
    if (a.column(0).HashAt(row) == b.column(0).HashAt(row)) ++same_ab;
    if (a.column(0).HashAt(row) == c.column(0).HashAt(row)) ++same_ac;
  }
  EXPECT_EQ(same_ab, 100);
  EXPECT_LT(same_ac, 20);
}

TEST(SyntheticTableTest, ColumnsAreIndependentStreams) {
  // Two identical specs should still produce different columns.
  const std::vector<ColumnSpec> specs = {ColumnSpec::Uniform("a", 1000),
                                         ColumnSpec::Uniform("b", 1000)};
  const Table table = MakeSyntheticTable(200, specs, 3);
  int same = 0;
  for (int64_t row = 0; row < 200; ++row) {
    if (table.column(0).HashAt(row) == table.column(1).HashAt(row)) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(RealWorldLikeTest, CensusShape) {
  const Table census = MakeCensusLikeScaled(5000);
  EXPECT_EQ(census.NumRows(), 5000);
  EXPECT_EQ(census.NumColumns(), 15);
  // Low-cardinality categoricals.
  EXPECT_LE(ExactDistinctHashSet(
                census.column(census.FindColumn("sex"))), 2);
  EXPECT_LE(ExactDistinctHashSet(
                census.column(census.FindColumn("workclass"))), 9);
  // Near-unique weight column.
  EXPECT_EQ(ExactDistinctHashSet(
                census.column(census.FindColumn("fnlwgt"))), 5000);
}

TEST(RealWorldLikeTest, CoverTypeShape) {
  const Table cover = MakeCoverTypeLikeScaled(20000);
  EXPECT_EQ(cover.NumRows(), 20000);
  EXPECT_EQ(cover.NumColumns(), 11);
  EXPECT_LE(ExactDistinctHashSet(
                cover.column(cover.FindColumn("cover_type"))), 7);
  const int64_t elevation_distinct =
      ExactDistinctHashSet(cover.column(cover.FindColumn("elevation")));
  EXPECT_GE(elevation_distinct, 500);
  EXPECT_LE(elevation_distinct, 4000);
}

TEST(RealWorldLikeTest, MSSalesShape) {
  const Table sales = MakeMSSalesLikeScaled(30000);
  EXPECT_EQ(sales.NumRows(), 30000);
  EXPECT_EQ(sales.NumColumns(), 20);
  EXPECT_EQ(ExactDistinctHashSet(
                sales.column(sales.FindColumn("license_number"))), 30000);
  EXPECT_LE(ExactDistinctHashSet(
                sales.column(sales.FindColumn("region"))), 9);
}

TEST(RealWorldLikeTest, FullSizeRowCounts) {
  // Construct only the cheapest full-size table here; the others are
  // exercised at full size by the benches.
  const Table census = MakeCensusLike();
  EXPECT_EQ(census.NumRows(), 32561);
  EXPECT_EQ(census.NumColumns(), 15);
}

TEST(RealWorldLikeTest, DeterministicInSeed) {
  const Table a = MakeCensusLikeScaled(500, 9);
  const Table b = MakeCensusLikeScaled(500, 9);
  for (int64_t c = 0; c < a.NumColumns(); ++c) {
    EXPECT_EQ(a.column(c).HashAt(0), b.column(c).HashAt(0));
    EXPECT_EQ(a.column(c).HashAt(499), b.column(c).HashAt(499));
  }
}

}  // namespace
}  // namespace ndv
