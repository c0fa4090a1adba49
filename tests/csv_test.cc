#include "table/csv.h"

#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "table/table.h"

namespace ndv {
namespace {

TEST(ParseCsvTest, SimpleDocument) {
  const auto rows = ParseCsvOrStatus("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ((*rows)[2], (std::vector<std::string>{"4", "5", "6"}));
}

TEST(ParseCsvTest, QuotedFieldsWithCommasAndNewlines) {
  const auto rows =
      ParseCsvOrStatus("name,note\n\"Doe, Jane\",\"line1\nline2\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1][0], "Doe, Jane");
  EXPECT_EQ((*rows)[1][1], "line1\nline2");
}

TEST(ParseCsvTest, EscapedQuotes) {
  const auto rows = ParseCsvOrStatus("x\n\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[1][0], "he said \"hi\"");
}

TEST(ParseCsvTest, CrLfTolerated) {
  const auto rows = ParseCsvOrStatus("a,b\r\n1,2\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1][1], "2");
}

TEST(ParseCsvTest, MissingTrailingNewline) {
  const auto rows = ParseCsvOrStatus("a,b\n1,2");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
}

TEST(ParseCsvTest, EmptyFields) {
  const auto rows = ParseCsvOrStatus("a,,c\n,,\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"", "", ""}));
}

TEST(ParseCsvTest, UnterminatedQuoteIsMalformed) {
  EXPECT_FALSE(ParseCsvOrStatus("a\n\"oops\n").ok());
}

TEST(ParseCsvTest, EmptyDocument) {
  const auto rows = ParseCsvOrStatus("");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(ParseCsvDiagnosticsTest, UnterminatedQuoteNamesItsLine) {
  const auto result = ParseCsvOrStatus("a,b\n1,2\n3,\"oops\n4,5\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(), "unterminated quote opened at line 3");
}

TEST(ParseCsvDiagnosticsTest, QuoteLineCountsEmbeddedNewlines) {
  // The quoted field on line 2 swallows two newlines; the bad quote opens
  // on physical line 4.
  const auto result = ParseCsvOrStatus("h\n\"a\nb\nc\",\"unclosed\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "unterminated quote opened at line 4");
}

TEST(ReadCsvDiagnosticsTest, RaggedRowNamesLineAndWidths) {
  const auto result = ReadCsvAsStringsOrStatus("a,b,c,d\n1,2,3,4\n5,6,7\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(),
            "ragged row at line 3: expected 4 fields, got 3");
}

TEST(ReadCsvDiagnosticsTest, RaggedRowLineAccountsForQuotedNewlines) {
  // Row 2 of data starts on physical line 4 because the first data row
  // contains an embedded newline.
  const auto result =
      ReadCsvInferredOrStatus("a,b\n\"x\ny\",1\nonly-one-field\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "ragged row at line 4: expected 2 fields, got 1");
}

TEST(ReadCsvDiagnosticsTest, EmptyDocumentIsMissingHeader) {
  const auto result = ReadCsvAsStringsOrStatus("");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "empty CSV document: missing header row");
  EXPECT_EQ(ReadCsvInferredOrStatus("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WriteCsvTest, RoundTripsThroughParse) {
  Table table;
  table.AddColumn("id", std::make_unique<Int64Column>(
                            std::vector<int64_t>{1, 2, 3}));
  table.AddColumn("name", std::make_unique<StringColumn>(std::vector<std::string>{
                              "plain", "with,comma", "with\"quote"}));
  std::ostringstream out;
  WriteCsv(table, out);
  const auto rows = ParseCsvOrStatus(out.str());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"id", "name"}));
  EXPECT_EQ((*rows)[2][1], "with,comma");
  EXPECT_EQ((*rows)[3][1], "with\"quote");
}

TEST(ReadCsvAsStringsTest, BuildsTable) {
  const auto table = ReadCsvAsStringsOrStatus("city,count\nparis,2\nrome,3\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 2);
  EXPECT_EQ(table->NumColumns(), 2);
  EXPECT_EQ(table->column_name(1), "count");
  EXPECT_EQ(table->column(0).ValueToString(1), "rome");
}

TEST(ReadCsvAsStringsTest, RejectsRaggedRows) {
  EXPECT_FALSE(ReadCsvAsStringsOrStatus("a,b\n1\n").ok());
}

TEST(ReadCsvAsStringsTest, RejectsEmptyDocument) {
  EXPECT_FALSE(ReadCsvAsStringsOrStatus("").ok());
}

TEST(ReadCsvInferredTest, InfersColumnTypes) {
  const auto table = ReadCsvInferredOrStatus(
      "id,score,name\n1,0.5,alice\n2,1.25,bob\n-3,2,carol\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).type(), ColumnType::kInt64);
  EXPECT_EQ(table->column(1).type(), ColumnType::kDouble);
  EXPECT_EQ(table->column(2).type(), ColumnType::kString);
  EXPECT_EQ(table->column(0).ValueToString(2), "-3");
  EXPECT_EQ(table->column(2).ValueToString(1), "bob");
}

TEST(ReadCsvInferredTest, MixedFieldFallsBackToString) {
  const auto table = ReadCsvInferredOrStatus("x\n1\n2\noops\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).type(), ColumnType::kString);
}

TEST(ReadCsvInferredTest, EmptyFieldBlocksNumericInference) {
  const auto table = ReadCsvInferredOrStatus("x\n1\n\n3\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).type(), ColumnType::kString);
}

TEST(ReadCsvInferredTest, HeaderOnlyYieldsStringColumns) {
  const auto table = ReadCsvInferredOrStatus("a,b\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 0);
  EXPECT_EQ(table->column(0).type(), ColumnType::kString);
}

TEST(ReadCsvInferredTest, HashesMatchTypedSemantics) {
  // Integer columns parsed from text must hash like native Int64Columns
  // (value equality, not string equality: "01" and "1" collide as ints...
  // -- they parse distinctly here, so verify plain equality semantics).
  const auto table = ReadCsvInferredOrStatus("v\n7\n7\n8\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).HashAt(0), table->column(0).HashAt(1));
  EXPECT_NE(table->column(0).HashAt(0), table->column(0).HashAt(2));
  EXPECT_EQ(ExactDistinctHashSet(table->column(0)), 2);
}

}  // namespace
}  // namespace ndv
