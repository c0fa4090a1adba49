#include "catalog/stats_catalog.h"

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/real_world_like.h"
#include "datagen/zipf.h"

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

  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->entries().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->Find("col")->estimate, 50.0);
}

TEST(StatsCatalogTest, SelectivityIsInverseEstimate) {
  EXPECT_DOUBLE_EQ(MakeStats("x", 250.0).EstimatedSelectivity(), 1.0 / 250.0);
  EXPECT_DOUBLE_EQ(MakeStats("x", 0.0).EstimatedSelectivity(), 1.0);
}

TEST(StatsCatalogTest, SerializationRoundTrips) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("plain"));
  catalog.Put(MakeStats("with|pipe", 3.25));
  catalog.Put(MakeStats("with%percent\nand newline", 1e-9));
  const std::string text = catalog.Serialize();
  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->entries().size(), 3u);
  ASSERT_TRUE(parsed->Find("with|pipe").has_value());
  EXPECT_DOUBLE_EQ(parsed->Find("with|pipe")->estimate, 3.25);
  ASSERT_TRUE(parsed->Find("with%percent\nand newline").has_value());
  EXPECT_DOUBLE_EQ(parsed->Find("with%percent\nand newline")->estimate, 1e-9);
  EXPECT_EQ(parsed->Find("plain")->method, "AE");
  EXPECT_EQ(parsed->Find("plain")->table_rows, 10000);
}

TEST(StatsCatalogTest, DeserializeRejectsMalformedInput) {
  EXPECT_FALSE(StatsCatalog::DeserializeOrStatus("").ok());
  EXPECT_FALSE(StatsCatalog::DeserializeOrStatus("wrong-header\n").ok());
  EXPECT_FALSE(
      StatsCatalog::DeserializeOrStatus("ndv-stats-v1\ntoo|few|fields\n")
          .ok());
  EXPECT_FALSE(StatsCatalog::DeserializeOrStatus(
                   "ndv-stats-v1\nname|x|100|80|1.0|1.0|2.0|AE\n")
                   .ok());
  EXPECT_FALSE(StatsCatalog::DeserializeOrStatus(
                   "ndv-stats-v1\nbad%zzescape|1|1|1|1|1|1|AE\n")
                   .ok());
}

TEST(StatsCatalogTest, EmptyCatalogSerializes) {
  const auto parsed =
      StatsCatalog::DeserializeOrStatus(StatsCatalog().Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(StatsCatalogTest, SerializesAsV2WithCoverageAndDegraded) {
  StatsCatalog catalog;
  ColumnStats stats = MakeStats("partial");
  stats.coverage = 0.75;
  stats.degraded = true;
  catalog.Put(stats);
  const std::string text = catalog.Serialize();
  EXPECT_EQ(text.rfind("ndv-stats-v2\n", 0), 0u) << text;

  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::optional<ColumnStats> found = parsed->Find("partial");
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(found->coverage, 0.75);
  EXPECT_TRUE(found->degraded);
}

TEST(StatsCatalogTest, LegacyV1FilesStillDeserialize) {
  // A file written by the previous release: v1 header, 8 fields, no
  // coverage/degraded columns. Must load as complete (coverage 1).
  const std::string v1_text =
      "ndv-stats-v1\n"
      "value|10000|100|80|100|80|8000|AE\n"
      "with%7Cpipe|10000|100|80|3.25|80|8000|GEE\n";
  const auto parsed = StatsCatalog::DeserializeOrStatus(v1_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->entries().size(), 2u);
  const std::optional<ColumnStats> value = parsed->Find("value");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->table_rows, 10000);
  EXPECT_DOUBLE_EQ(value->coverage, 1.0);
  EXPECT_FALSE(value->degraded);
  ASSERT_TRUE(parsed->Find("with|pipe").has_value());
  EXPECT_EQ(parsed->Find("with|pipe")->method, "GEE");
}

TEST(StatsCatalogTest, DeserializeDiagnosticsNameLineAndField) {
  {
    const auto result = StatsCatalog::DeserializeOrStatus("");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(), "missing ndv-stats header line");
  }
  {
    const auto result = StatsCatalog::DeserializeOrStatus("wrong-header\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("line 1: unknown header"),
              std::string::npos)
        << result.status().ToString();
  }
  {
    const auto result = StatsCatalog::DeserializeOrStatus(
        "ndv-stats-v1\nvalue|10000|100|80|100|80|8000|AE\ntoo|few\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find(
                  "line 3: expected 8 fields for a v1 entry, got 2"),
              std::string::npos)
        << result.status().ToString();
  }
  {
    const auto result = StatsCatalog::DeserializeOrStatus(
        "ndv-stats-v1\nvalue|abc|100|80|100|80|8000|AE\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("line 2 field 2 (table_rows)"),
              std::string::npos)
        << result.status().ToString();
  }
  {
    const auto result = StatsCatalog::DeserializeOrStatus(
        "ndv-stats-v1\nbad%zz|1|1|1|1|1|1|AE\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(
        result.status().message().find("field 1 (column name): bad percent"),
        std::string::npos)
        << result.status().ToString();
  }
  {
    const auto result = StatsCatalog::DeserializeOrStatus(
        "ndv-stats-v2\nvalue|1|1|1|1|1|1|0.5|7|AE\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find(
                  "field 9 (degraded): expected 0 or 1"),
              std::string::npos)
        << result.status().ToString();
  }
}

// Fuzz-style round trip: adversarial names and extreme numeric values must
// survive Serialize -> DeserializeOrStatus exactly.
TEST(StatsCatalogTest, FuzzRoundTripAdversarialEntries) {
  Rng rng(2024);
  const std::vector<std::string> alphabet = {
      "|", "%", "\n", "%%", "|%|", "a", "\t", " ", "\"", ",", "\\",
      "%7C", "\x01", "\x7f", "\xc3\xa9" /* é */, "0", "ndv-stats-v1"};
  const std::vector<double> extremes = {
      0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, 1e-300,
      123456789.123456789, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  const std::vector<int64_t> extreme_ints = {
      0, 1, -1, std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min()};

  for (int trial = 0; trial < 200; ++trial) {
    StatsCatalog catalog;
    ColumnStats stats;
    // Random adversarial name (non-empty so Find is well-defined; a name
    // dedupes against itself, which the comparison below accounts for by
    // using a single entry).
    const int pieces = static_cast<int>(rng.NextBounded(6)) + 1;
    for (int i = 0; i < pieces; ++i) {
      stats.column_name += alphabet[rng.NextBounded(alphabet.size())];
    }
    stats.method = alphabet[rng.NextBounded(alphabet.size())];
    stats.table_rows = extreme_ints[rng.NextBounded(extreme_ints.size())];
    stats.sample_rows = extreme_ints[rng.NextBounded(extreme_ints.size())];
    stats.sample_distinct =
        extreme_ints[rng.NextBounded(extreme_ints.size())];
    stats.estimate = extremes[rng.NextBounded(extremes.size())];
    stats.lower = extremes[rng.NextBounded(extremes.size())];
    stats.upper = extremes[rng.NextBounded(extremes.size())];
    stats.coverage = extremes[rng.NextBounded(extremes.size())];
    stats.degraded = rng.NextBounded(2) == 1;
    catalog.Put(stats);

    const auto parsed = StatsCatalog::DeserializeOrStatus(catalog.Serialize());
    ASSERT_TRUE(parsed.ok())
        << "trial " << trial << ": " << parsed.status().ToString();
    const std::optional<ColumnStats> found = parsed->Find(stats.column_name);
    ASSERT_TRUE(found.has_value()) << "trial " << trial;
    EXPECT_EQ(found->method, stats.method);
    EXPECT_EQ(found->table_rows, stats.table_rows);
    EXPECT_EQ(found->sample_rows, stats.sample_rows);
    EXPECT_EQ(found->sample_distinct, stats.sample_distinct);
    EXPECT_EQ(found->estimate, stats.estimate);
    EXPECT_EQ(found->lower, stats.lower);
    EXPECT_EQ(found->upper, stats.upper);
    EXPECT_EQ(found->coverage, stats.coverage);
    EXPECT_EQ(found->degraded, stats.degraded);
  }
}

// Fuzz-style robustness: random mutations of a valid serialization must
// either parse or fail with a typed error — never crash.
TEST(StatsCatalogTest, FuzzMutatedInputNeverCrashes) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("alpha"));
  catalog.Put(MakeStats("beta|%\n", 2.5));
  const std::string good = catalog.Serialize();

  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = good;
    const int edits = static_cast<int>(rng.NextBounded(4)) + 1;
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.NextBounded(mutated.size());
      switch (rng.NextBounded(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBounded(256));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.NextBounded(256)));
          break;
      }
    }
    const auto result = StatsCatalog::DeserializeOrStatus(mutated);
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

// Named regression cases promoted from the fuzz_stats_catalog corpus runs.
// The mutation campaigns found no crashes, so these pin down the
// accept/reject *boundary* the fuzzer exercised — each case is an input
// class the harness generates, with the exact behavior the parser settled
// on, so a future "harmless" parser change that flips one fails loudly.

TEST(StatsCatalogFuzzRegressionTest, NonFiniteValuesRoundTripThroughText) {
  // %.17g prints non-finite doubles as "nan"/"inf"; from_chars reads them
  // back. A catalog poisoned with non-finite estimates must survive the
  // text round trip rather than losing entries or aborting.
  StatsCatalog catalog;
  ColumnStats stats = MakeStats("poisoned");
  stats.estimate = std::numeric_limits<double>::quiet_NaN();
  stats.upper = std::numeric_limits<double>::infinity();
  stats.lower = -std::numeric_limits<double>::infinity();
  catalog.Put(stats);
  const auto parsed = StatsCatalog::DeserializeOrStatus(catalog.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const std::optional<ColumnStats> found = parsed.value().Find("poisoned");
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(std::isnan(found->estimate));
  EXPECT_TRUE(std::isinf(found->upper));
  EXPECT_GT(found->upper, 0.0);
  EXPECT_TRUE(std::isinf(found->lower));
  EXPECT_LT(found->lower, 0.0);
}

TEST(StatsCatalogFuzzRegressionTest, LowercaseHexEscapesAreAccepted) {
  // The serializer emits uppercase hex ("%7C"), but the reader must take
  // either case — hand-edited catalogs use lowercase.
  const std::string text =
      "ndv-stats-v2\n"
      "a%7cb|100|10|5|5|5|10|0.1|0|GEE\n";
  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed.value().Find("a|b").has_value());
}

TEST(StatsCatalogFuzzRegressionTest, TruncatedEscapeAtEndOfNameIsRejected) {
  // "%4" with no second hex digit: the escape decoder must not read past
  // the end of the field (this is the fuzzer's favorite boundary probe).
  const std::string text =
      "ndv-stats-v2\n"
      "ab%4|100|10|5|5|5|10|0.1|0|GEE\n";
  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("bad percent escape"),
            std::string::npos)
      << parsed.status().message();
}

TEST(StatsCatalogFuzzRegressionTest, DuplicateNamesLastEntryWins) {
  // Put() overwrites by name, so a document listing a column twice parses
  // to a single entry holding the later values.
  const std::string text =
      "ndv-stats-v2\n"
      "col|100|10|5|5.0|5|10|0.1|0|GEE\n"
      "col|200|20|7|7.0|7|14|0.1|0|AE\n";
  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed.value().entries().size(), 1u);
  const std::optional<ColumnStats> found = parsed.value().Find("col");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->table_rows, 200);
  EXPECT_EQ(found->method, "AE");
}

TEST(StatsCatalogFuzzRegressionTest, V1HeaderRejectsV2FieldCount) {
  // Version is taken from the header, not inferred per line: a v2-shaped
  // entry (10 fields) under a v1 header is a field-count error, never a
  // silent reinterpretation.
  const std::string text =
      "ndv-stats-v1\n"
      "col|100|10|5|5.0|5|10|0.1|0|GEE\n";
  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("expected 8 fields for a v1"),
            std::string::npos)
      << parsed.status().message();
}

TEST(StatsCatalogFuzzRegressionTest, SecondHeaderLineIsParsedAsAnEntry) {
  // Only the first non-blank line is header-eligible; a stray repeated
  // header further down is just a malformed one-field entry.
  const std::string text =
      "ndv-stats-v2\n"
      "ndv-stats-v1\n";
  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("got 1"), std::string::npos)
      << parsed.status().message();
}

TEST(StatsCatalogFuzzRegressionTest, CarriageReturnsAreDataNotLineEndings) {
  // Lines split on '\n' only. A CRLF-terminated document therefore leaves
  // a literal '\r' on the final field; the parser keeps it as data (and
  // the serializer escapes nothing but '%', '|', '\n', so it round-trips).
  const std::string text =
      "ndv-stats-v2\n"
      "col|100|10|5|5.0|5|10|0.1|0|GEE\r\n";
  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const std::optional<ColumnStats> found = parsed.value().Find("col");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->method, "GEE\r");
}

TEST(StatsCatalogFuzzRegressionTest, IntegerOverflowIsRejectedNotWrapped) {
  // 2^63 does not fit in int64_t; from_chars reports out_of_range and the
  // entry must be rejected, not saturated or wrapped negative.
  const std::string text =
      "ndv-stats-v2\n"
      "col|9223372036854775808|10|5|5.0|5|10|0.1|0|GEE\n";
  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("table_rows"), std::string::npos)
      << parsed.status().message();
}

TEST(StatsCatalogFuzzRegressionTest, NumberSyntaxIsStrict) {
  // from_chars semantics, pinned: no leading '+', no trailing junk, no
  // embedded whitespace. Each of these came out of the mutation corpus.
  const std::vector<std::string> bad_values = {"+5", "12x", " 12", "12 ", ""};
  for (const std::string& value : bad_values) {
    const std::string text =
        "ndv-stats-v2\n"
        "col|" + value + "|10|5|5.0|5|10|0.1|0|GEE\n";
    const auto parsed = StatsCatalog::DeserializeOrStatus(text);
    EXPECT_FALSE(parsed.ok()) << "accepted table_rows='" << value << "'";
  }
}

TEST(StatsCatalogFuzzRegressionTest, EmptyColumnNameIsAllowed) {
  // An empty first field is a legal (if odd) column name; it must be
  // stored and findable, not confused with a missing field.
  const std::string text =
      "ndv-stats-v2\n"
      "|100|10|5|5.0|5|10|0.1|0|GEE\n";
  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed.value().Find("").has_value());
}

TEST(StatsCatalogFuzzRegressionTest, BlankLinesAreSkippedAnywhere) {
  // Blank lines are ignored everywhere — before the header, between
  // entries, and trailing.
  const std::string text =
      "\n\nndv-stats-v2\n\n"
      "a|100|10|5|5.0|5|10|0.1|0|GEE\n\n\n"
      "b|100|10|5|5.0|5|10|0.1|0|GEE\n\n";
  const auto parsed = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().entries().size(), 2u);
}

TEST(StatsCatalogFuzzRegressionTest, SerializeIsAFixedPoint) {
  // parse -> serialize reaches a fixed point in one step: the serialized
  // form of a parsed document reparses and reserializes byte-identically.
  // (The fuzz harness asserts this on every accepted input.)
  const std::string text =
      "\nndv-stats-v2\n"
      "a%7cb|100|10|5|5.0|5|1e99|0.125|1|GEE\r\n"
      "|200|20|7|nan|7|inf|0.25|0|AE\n";
  const auto first = StatsCatalog::DeserializeOrStatus(text);
  ASSERT_TRUE(first.ok()) << first.status().message();
  const std::string once = first.value().Serialize();
  const auto second = StatsCatalog::DeserializeOrStatus(once);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(second.value().Serialize(), once);
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

TEST(AnalyzeTableTest, CatalogRoundTripsThroughText) {
  const Table census = MakeCensusLikeScaled(2000);
  const StatsCatalog catalog = AnalyzeTable(census, {});
  const auto parsed = StatsCatalog::DeserializeOrStatus(catalog.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->entries().size(), catalog.entries().size());
  for (const ColumnStats& stats : catalog.entries()) {
    const std::optional<ColumnStats> roundtripped = parsed->Find(stats.column_name);
    ASSERT_TRUE(roundtripped.has_value());
    EXPECT_DOUBLE_EQ(roundtripped->estimate, stats.estimate);
    EXPECT_DOUBLE_EQ(roundtripped->upper, stats.upper);
    EXPECT_EQ(roundtripped->sample_rows, stats.sample_rows);
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
