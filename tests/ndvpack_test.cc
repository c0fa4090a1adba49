// The file-level ndvpack entry points (storage/ndvpack.h and the
// transparent loader): a packed table is the same table. CSV -> pack ->
// open must equal the heap columns value-for-value and hash-for-hash
// (including NaN / -0.0 canonicalization and strings with embedded
// quotes/newlines), AnalyzeTable over the opened columns must be
// thread-count invariant and bit-identical to the heap path, and a file
// that is not a pack must fail with a typed Status naming it. Codec,
// blocking, fixed-point and corruption cases live in pack_v2_test.cc.

#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/stats_catalog.h"
#include "common/random.h"
#include "storage/ndvpack.h"
#include "storage/pack_writer.h"
#include "storage/table_loader.h"
#include "table/csv.h"
#include "table/table.h"

namespace ndv {
namespace {

Table MakeMixedTable() {
  Table table;
  table.AddColumn("ints", std::make_unique<Int64Column>(std::vector<int64_t>{
                              0, -1, 42, std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(), 42, 7}));
  table.AddColumn(
      "doubles",
      std::make_unique<DoubleColumn>(std::vector<double>{
          0.0, -0.0, 1.5, std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(), -2.25}));
  table.AddColumn(
      "strings",
      std::make_unique<StringColumn>(std::vector<std::string>{
          "", "plain", "comma,inside", "quote\"inside", "line\nbreak",
          "plain", "unicode \xc3\xa9"}));
  return table;
}

void ExpectTablesEqual(const Table& expected, const Table& actual) {
  ASSERT_EQ(expected.NumRows(), actual.NumRows());
  ASSERT_EQ(expected.NumColumns(), actual.NumColumns());
  for (int64_t c = 0; c < expected.NumColumns(); ++c) {
    SCOPED_TRACE("column " + expected.column_name(c));
    EXPECT_EQ(expected.column_name(c), actual.column_name(c));
    const Column& a = expected.column(c);
    const Column& b = actual.column(c);
    ASSERT_EQ(a.type(), b.type());
    ASSERT_EQ(a.size(), b.size());
    // Hash-for-hash: both per-row and through the batch kernels.
    const std::vector<uint64_t> hashes_a = a.HashAll();
    const std::vector<uint64_t> hashes_b = b.HashAll();
    EXPECT_EQ(hashes_a, hashes_b);
    for (int64_t row = 0; row < a.size(); ++row) {
      ASSERT_EQ(a.HashAt(row), b.HashAt(row)) << "row " << row;
      ASSERT_EQ(a.ValueToString(row), b.ValueToString(row)) << "row " << row;
    }
  }
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Pack -> open through the file entry points. Zero-row columns are
// covered by PackV2Test.EmptyAndSingleRowTablesRoundTrip, the repack
// fixed point by PackV2Test.RepackIsAFixedPoint.
Table WriteAndOpen(const Table& table, const std::string& name) {
  const std::string path = TempPath(name);
  const Status written = WritePackFileV2(table, path);
  EXPECT_TRUE(written.ok()) << written.ToString();
  auto opened = OpenPackFile(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? *std::move(opened) : Table();
}

TEST(NdvPackTest, MixedTableRoundTripsThroughFile) {
  const Table table = MakeMixedTable();
  ExpectTablesEqual(table, WriteAndOpen(table, "mixed.ndvpack"));
}

TEST(NdvPackTest, CsvToPackToOpenEqualsHeapColumns) {
  // Quoted fields, embedded commas, quotes, and newlines all survive the
  // CSV -> heap -> pack -> mmap pipeline.
  const std::string csv =
      "id,score,label\n"
      "1,0.5,alpha\n"
      "2,-0.0,\"comma, embedded\"\n"
      "3,2.25,\"line\nbreak\"\n"
      "4,0.5,\"double\"\"quote\"\n"
      "5,0.0,alpha\n";
  const auto heap = ReadCsvInferredOrStatus(csv);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ASSERT_EQ(heap->column(0).type(), ColumnType::kInt64);
  ASSERT_EQ(heap->column(1).type(), ColumnType::kDouble);
  ASSERT_EQ(heap->column(2).type(), ColumnType::kString);

  const std::string path = TempPath("csv_roundtrip.ndvpack");
  ASSERT_TRUE(WritePackFileV2(*heap, path).ok());
  const auto mapped = OpenPackFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectTablesEqual(*heap, *mapped);
}

TEST(NdvPackTest, EmptyTableRoundTrips) {
  const Table empty;
  const Table opened = WriteAndOpen(empty, "empty.ndvpack");
  EXPECT_EQ(opened.NumRows(), 0);
  EXPECT_EQ(opened.NumColumns(), 0);
}

TEST(NdvPackTest, AnalyzeTableBitIdenticalHeapVsPackAtAnyThreadCount) {
  // A larger synthetic table so sampling actually exercises the columns.
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  Rng rng(7);
  for (int64_t i = 0; i < 20000; ++i) {
    ints.push_back(static_cast<int64_t>(rng.NextBounded(512)));
    doubles.push_back(
        static_cast<double>(rng.NextBounded(97)) / 8.0);
    strings.push_back('v' + std::to_string(rng.NextBounded(300)));
  }
  Table heap;
  heap.AddColumn("i", std::make_unique<Int64Column>(std::move(ints)));
  heap.AddColumn("d", std::make_unique<DoubleColumn>(std::move(doubles)));
  heap.AddColumn("s", std::make_unique<StringColumn>(strings));

  const std::string path = TempPath("analyze_invariance.ndvpack");
  ASSERT_TRUE(WritePackFileV2(heap, path).ok());
  const auto mapped = OpenPackFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  AnalyzeOptions options;
  options.sample_fraction = 0.05;
  options.seed = 99;
  for (const bool exact : {false, true}) {
    options.exact = exact;
    options.threads = 1;
    const StatsCatalog heap_catalog = AnalyzeTable(heap, options);
    const std::string heap_serialized = heap_catalog.Serialize();
    for (const int threads : {1, 2, 3, 8}) {
      options.threads = threads;
      const StatsCatalog mapped_catalog = AnalyzeTable(*mapped, options);
      EXPECT_EQ(heap_serialized, mapped_catalog.Serialize())
          << "exact=" << exact << " threads=" << threads;
    }
  }
}

TEST(NdvPackTest, ExactDistinctMatchesAcrossStorage) {
  const Table table = MakeMixedTable();
  const Table packed = WriteAndOpen(table, "exact_distinct.ndvpack");
  ASSERT_EQ(packed.NumColumns(), table.NumColumns());
  for (int64_t c = 0; c < table.NumColumns(); ++c) {
    EXPECT_EQ(ExactDistinctHashSet(table.column(c)),
              ExactDistinctHashSet(packed.column(c)));
    EXPECT_EQ(ExactDistinctSorted(table.column(c)),
              ExactDistinctSorted(packed.column(c)));
  }
}

TEST(NdvPackTest, LoadTableAutoDetectsBothFormats) {
  const Table table = MakeMixedTable();
  const std::string pack_path = TempPath("auto_detect.ndvpack");
  ASSERT_TRUE(WritePackFileV2(table, pack_path).ok());
  const auto from_pack = LoadTableAuto(pack_path);
  ASSERT_TRUE(from_pack.ok()) << from_pack.status().ToString();
  ExpectTablesEqual(table, *from_pack);

  // CSV with only the string column (CSV re-infers types; strings are the
  // format-stable case).
  const std::string csv_path = TempPath("auto_detect.csv");
  {
    std::string csv = "label\n\"a,b\"\nplain\n\"q\"\"q\"\n";
    FILE* f = fopen(csv_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(csv.data(), 1, csv.size(), f);
    fclose(f);
  }
  const auto from_csv = LoadTableAuto(csv_path);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  EXPECT_EQ(from_csv->NumRows(), 3);
  EXPECT_EQ(from_csv->column(0).ValueToString(0), "a,b");

  const auto missing = LoadTableAuto(TempPath("does_not_exist.anything"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// Byte-level corruption and truncation are covered by
// PackV2Test.EverySingleByteCorruptionIsRejected, and legacy v1 files by
// PackV2Test.V1FilesAreRejectedByMagic.
TEST(NdvPackTest, NotAPackFileThroughOpen) {
  const std::string path = TempPath("not_a_pack.ndvpack");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("id,label\n1,this is a CSV file that carries a pack extension\n"
        "2,but no pack magic in its first eight bytes\n",
        f);
  fclose(f);
  const auto opened = OpenPackFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  // The error names the path for the operator.
  EXPECT_NE(opened.status().message().find(path), std::string::npos);
}

}  // namespace
}  // namespace ndv
