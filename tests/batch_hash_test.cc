// Batch hashing (HashRange / HashSlice / HashAll) must be bit-identical to
// the per-row HashAt path for every column type — heap columns and the
// blocked columns of an ndvpack v2 pack under every codec — and the
// parallel exact-NDV scan must return the same count at every thread
// count. Blocked HashRange reads delta and dict blocks in place, so it is
// also checked at every delta and dict width, to decode no block, to leave
// sampled profiles independent of the gather order, and to give a sampled
// ANALYZE of an auto-codec pack the heap table's result.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/stats_catalog.h"
#include "common/check.h"
#include "common/random.h"
#include "sample/samplers.h"
#include "storage/blocked_column.h"
#include "storage/pack_reader.h"
#include "storage/pack_writer.h"
#include "table/column.h"
#include "table/column_sampling.h"
#include "table/table.h"

namespace ndv {
namespace {

// Checks out[i] == HashAt(...) for HashSlice over several sub-ranges,
// HashRange over a shuffled gather list, and HashAll.
void ExpectBatchMatchesPerRow(const Column& column) {
  const int64_t n = column.size();
  ASSERT_GT(n, 0);

  // HashAll == HashAt for every row.
  const std::vector<uint64_t> all = column.HashAll();
  ASSERT_EQ(all.size(), static_cast<size_t>(n));
  for (int64_t row = 0; row < n; ++row) {
    ASSERT_EQ(all[static_cast<size_t>(row)], column.HashAt(row))
        << "HashAll mismatch at row " << row;
  }

  // HashSlice over sub-ranges, including empty and full.
  const int64_t mid = n / 2;
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, n}, {0, 0}, {n, n}, {0, mid}, {mid, n}, {n / 3, 2 * n / 3}};
  for (const auto& [begin, end] : ranges) {
    std::vector<uint64_t> out(static_cast<size_t>(end - begin), 0);
    column.HashSlice(begin, end, out.data());
    for (int64_t i = 0; i < end - begin; ++i) {
      ASSERT_EQ(out[static_cast<size_t>(i)], column.HashAt(begin + i))
          << "HashSlice [" << begin << ", " << end << ") mismatch at offset "
          << i;
    }
  }

  // HashRange over a gather list with repeats and non-monotone order.
  Rng rng(31);
  std::vector<int64_t> rows;
  rows.reserve(257);
  for (int i = 0; i < 257; ++i) {
    rows.push_back(static_cast<int64_t>(rng.NextBounded(
        static_cast<uint64_t>(n))));
  }
  std::vector<uint64_t> out(rows.size(), 0);
  column.HashRange(rows, out.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(out[i], column.HashAt(rows[i]))
        << "HashRange mismatch at gather index " << i;
  }
}

TEST(BatchHashTest, Int64ColumnMatchesHashAt) {
  Rng rng(41);
  std::vector<int64_t> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextU64()));
  }
  values.push_back(0);
  values.push_back(-1);
  values.push_back(std::numeric_limits<int64_t>::min());
  values.push_back(std::numeric_limits<int64_t>::max());
  ExpectBatchMatchesPerRow(Int64Column(std::move(values)));
}

TEST(BatchHashTest, DoubleColumnMatchesHashAt) {
  Rng rng(43);
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(rng.NextDouble() * 1e9 - 5e8);
  }
  // The canonicalized cases: signed zeros and every flavor of NaN must go
  // through the same normalization in both the scalar and batch paths.
  values.push_back(0.0);
  values.push_back(-0.0);
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(-std::numeric_limits<double>::quiet_NaN());
  values.push_back(std::numeric_limits<double>::signaling_NaN());
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(-std::numeric_limits<double>::infinity());
  values.push_back(std::numeric_limits<double>::denorm_min());
  const DoubleColumn column(std::move(values));
  ExpectBatchMatchesPerRow(column);

  // The canonicalization itself: -0.0 == +0.0, all NaNs are one class.
  const DoubleColumn zeros({0.0, -0.0});
  EXPECT_EQ(zeros.HashAt(0), zeros.HashAt(1));
  const DoubleColumn nans({std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::signaling_NaN()});
  EXPECT_EQ(nans.HashAt(0), nans.HashAt(1));
  EXPECT_EQ(nans.HashAt(0), nans.HashAt(2));
}

TEST(BatchHashTest, StringColumnMatchesHashAt) {
  Rng rng(47);
  std::vector<std::string> values;
  for (int i = 0; i < 8000; ++i) {
    values.push_back("value_" + std::to_string(rng.NextBounded(500)));
  }
  values.push_back("");
  values.push_back(std::string(1000, 'x'));
  ExpectBatchMatchesPerRow(StringColumn(values));
}

// --- Blocked (ndvpack v2) columns. -----------------------------------------

constexpr int64_t kPackBlockRows = 64;
// Ten full blocks plus a partial last block of 37 rows.
constexpr int64_t kPackRows = 10 * kPackBlockRows + 37;

// Heap table whose int64 column has small varying deltas (so the delta
// codec needs a non-zero width), a double column, and a string column with
// a small dictionary.
Table MakeHeapTable() {
  Rng rng(67);
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  int64_t value = -1000;
  for (int64_t i = 0; i < kPackRows; ++i) {
    value += static_cast<int64_t>(rng.NextBounded(300)) - 100;
    ints.push_back(value);
    doubles.push_back(static_cast<double>(rng.NextBounded(90)) * 0.25);
    strings.push_back("label_" + std::to_string(rng.NextBounded(40)));
  }
  Table table;
  table.AddColumn("ints", std::make_unique<Int64Column>(std::move(ints)));
  table.AddColumn("doubles",
                  std::make_unique<DoubleColumn>(std::move(doubles)));
  table.AddColumn("strings",
                  std::make_unique<StringColumn>(std::move(strings)));
  return table;
}

// Serializes `heap` as a v2 pack with small blocks under `codec` and opens
// it from an 8-byte-aligned in-memory image that the columns keep alive.
Table OpenAsPack(const Table& heap, PackCodecChoice codec,
                 int64_t block_rows = kPackBlockRows) {
  PackWriteOptions options;
  options.block_rows = block_rows;
  options.codec = codec;
  const std::string bytes = SerializePackV2(heap, options);
  auto words = std::make_shared<std::vector<uint64_t>>((bytes.size() + 7) / 8);
  std::memcpy(words->data(), bytes.data(), bytes.size());
  auto opened = OpenPackV2FromBytes(
      {reinterpret_cast<const uint8_t*>(words->data()), bytes.size()}, words);
  NDV_CHECK_MSG(opened.ok(), "%s", opened.status().ToString().c_str());
  return std::move(opened).value();
}

// The gather lists a blocked HashRange over blocks of `block_rows` must
// answer in request order.
std::vector<std::vector<int64_t>> GatherLists(int64_t n, int64_t block_rows) {
  Rng rng(71);
  std::vector<std::vector<int64_t>> lists;
  // Shuffled with repeats, spanning every block.
  std::vector<int64_t> repeats;
  for (int64_t i = 0; i < 3 * n; ++i) {
    repeats.push_back(static_cast<int64_t>(rng.NextBounded(
        static_cast<uint64_t>(n))));
  }
  lists.push_back(repeats);
  // Strictly descending.
  std::vector<int64_t> descending;
  for (int64_t row = n - 1; row >= 0; row -= 3) descending.push_back(row);
  lists.push_back(descending);
  // Confined to one block (the partial last one), shuffled with repeats.
  std::vector<int64_t> one_block;
  const int64_t last_begin = (n - 1) / block_rows * block_rows;
  for (int64_t row = last_begin; row < n; ++row) {
    one_block.push_back(row);
    one_block.push_back(row);
  }
  rng.Shuffle(one_block);
  lists.push_back(one_block);
  // Both edges of every block (the last one short), twice each, shuffled.
  std::vector<int64_t> edges;
  for (int64_t begin = 0; begin < n; begin += block_rows) {
    const int64_t last = std::min(begin + block_rows, n) - 1;
    for (const int64_t row : {begin, last, begin, last}) edges.push_back(row);
  }
  rng.Shuffle(edges);
  lists.push_back(edges);
  // Empty.
  lists.emplace_back();
  return lists;
}

void ExpectGathersMatchPerRow(const Column& column,
                              int64_t block_rows = kPackBlockRows) {
  for (const std::vector<int64_t>& rows :
       GatherLists(column.size(), block_rows)) {
    SCOPED_TRACE("gather of " + std::to_string(rows.size()) + " rows");
    // One sentinel slot past the end must stay untouched.
    std::vector<uint64_t> out(rows.size() + 1, 0xdeadbeefULL);
    column.HashRange(rows, out.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(out[i], column.HashAt(rows[i]))
          << "HashRange mismatch at gather index " << i << " (row "
          << rows[i] << ")";
    }
    EXPECT_EQ(out.back(), 0xdeadbeefULL);
  }
}

TEST(BlockedBatchHashTest, EveryCodecMatchesHashAt) {
  const Table heap = MakeHeapTable();
  // raw: raw int64, raw string codes, raw double; delta: delta int64;
  // dict: narrowed dictionary codes. Doubles are raw under every choice.
  for (const PackCodecChoice codec :
       {PackCodecChoice::kForceRaw, PackCodecChoice::kForceDelta,
        PackCodecChoice::kForceDict, PackCodecChoice::kAutoCodec}) {
    SCOPED_TRACE(PackCodecChoiceName(codec));
    const Table pack = OpenAsPack(heap, codec);
    for (int64_t c = 0; c < pack.NumColumns(); ++c) {
      SCOPED_TRACE(pack.column_name(c));
      const Column& column = pack.column(c);
      ExpectBatchMatchesPerRow(column);
      ExpectGathersMatchPerRow(column);
      // And hash-for-hash equal to the heap column it was written from.
      for (int64_t row = 0; row < column.size(); ++row) {
        ASSERT_EQ(column.HashAt(row), heap.column(c).HashAt(row));
      }
    }
  }
}

TEST(BlockedBatchHashTest, SampleProfileDoesNotDependOnGatherOrder) {
  const Table heap = MakeHeapTable();
  for (const PackCodecChoice codec :
       {PackCodecChoice::kForceRaw, PackCodecChoice::kForceDelta,
        PackCodecChoice::kForceDict}) {
    SCOPED_TRACE(PackCodecChoiceName(codec));
    const Table pack = OpenAsPack(heap, codec);
    for (int64_t c = 0; c < pack.NumColumns(); ++c) {
      SCOPED_TRACE(pack.column_name(c));
      Rng rng(73);
      const std::vector<int64_t> shuffled =
          SampleWithoutReplacementFloyd(kPackRows, kPackRows / 3, rng);
      std::vector<int64_t> sorted = shuffled;
      std::sort(sorted.begin(), sorted.end());
      const SampleSummary from_shuffled =
          SummarizeRows(pack.column(c), shuffled);
      const SampleSummary from_sorted = SummarizeRows(pack.column(c), sorted);
      EXPECT_EQ(from_shuffled.freq, from_sorted.freq);
      EXPECT_EQ(from_shuffled.r(), from_sorted.r());
      EXPECT_EQ(from_shuffled.freq,
                SummarizeRows(heap.column(c), shuffled).freq);
    }
  }
}

// The regression guard that does not depend on timing: a gather reads
// delta and dict blocks in place, so a shuffled gather over compressed
// blocks decodes none of them (a per-row gather through the one-block
// cache would decode about one per row, a whole-block gather one per
// touched block).
TEST(BlockedBatchHashTest, GatherDecodesNoBlock) {
  const Table heap = MakeHeapTable();
  const std::vector<int64_t> touched_blocks = {1, 4, 7, 10};  // 10 = partial
  for (const auto& [codec, name] :
       {std::pair{PackCodecChoice::kForceDelta, "ints"},
        std::pair{PackCodecChoice::kForceDict, "strings"}}) {
    SCOPED_TRACE(name);
    const Table pack = OpenAsPack(heap, codec);
    const Column& column = pack.column(pack.FindColumn(name));
    Rng rng(79);
    std::vector<int64_t> rows;
    for (const int64_t block : touched_blocks) {
      const int64_t begin = block * kPackBlockRows;
      const int64_t end = std::min(begin + kPackBlockRows, kPackRows);
      for (int64_t row = begin; row < end; ++row) {
        rows.push_back(row);
        if (row % 3 == 0) rows.push_back(row);  // repeats
      }
    }
    rng.Shuffle(rows);

    std::vector<uint64_t> out(rows.size());
    const int64_t before = BlockDecodeCount();
    column.HashRange(rows, out.data());
    EXPECT_EQ(BlockDecodeCount() - before, 0);
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(out[i], column.HashAt(rows[i]));
    }
  }
}

// An int64 column whose every block needs exactly `width` delta bytes:
// random steps over the width's range, one per block at its most negative
// value (width 0: a constant column).
std::unique_ptr<Column> DeltaWidthColumn(int width, uint64_t seed) {
  Rng rng(seed);
  const uint64_t span = width == 8 ? 0 : uint64_t{1} << (8 * width);
  std::vector<int64_t> values;
  uint64_t value = 0x0123456789abcdefULL;
  for (int64_t i = 0; i < kPackRows; ++i) {
    uint64_t step = 0;
    if (width == 8) {
      step = i % kPackBlockRows == 1 ? uint64_t{1} << 63 : rng.NextU64();
    } else if (width > 0) {
      step = i % kPackBlockRows == 1 ? 0 : rng.NextBounded(span);
      step -= span / 2;  // A signed step in [-span/2, span/2).
    }
    value += step;
    values.push_back(static_cast<int64_t>(value));
  }
  return std::make_unique<Int64Column>(std::move(values));
}

// A string column whose dictionary codes need 1, then 2, then 4 bytes.
// The writer numbers entries in first-appearance order, so the first
// kWideDictEntries rows are distinct (the blocks of codes below 2^8, then
// below 2^16, then above) and the rest repeat them at random, each block
// once at the largest code, through a short last block.
constexpr int64_t kWideDictEntries = 65600;

std::unique_ptr<Column> WideDictColumn() {
  std::vector<std::string> dictionary;
  for (int64_t i = 0; i < kWideDictEntries; ++i) {
    dictionary.push_back("entry_" + std::to_string(i));
  }
  Rng rng(137);
  std::vector<int32_t> codes;
  const int64_t rows = kWideDictEntries + 3 * kPackBlockRows + 37;
  for (int64_t i = 0; i < rows; ++i) {
    int64_t code = i;
    if (i >= kWideDictEntries) {
      code = i % kPackBlockRows == 5
                 ? kWideDictEntries - 1
                 : static_cast<int64_t>(rng.NextBounded(kWideDictEntries));
    }
    codes.push_back(static_cast<int32_t>(code));
  }
  return std::make_unique<StringColumn>(std::move(dictionary),
                                        std::move(codes));
}

// The block directory of column `c` when `heap` is packed as OpenAsPack
// packs it.
std::vector<PackV2BlockInfo> ColumnBlocks(const Table& heap,
                                          PackCodecChoice codec, int64_t c) {
  PackWriteOptions options;
  options.block_rows = kPackBlockRows;
  options.codec = codec;
  const std::string bytes = SerializePackV2(heap, options);
  std::vector<uint64_t> words((bytes.size() + 7) / 8);
  std::memcpy(words.data(), bytes.data(), bytes.size());
  const auto info = InspectPackV2(
      {reinterpret_cast<const uint8_t*>(words.data()), bytes.size()});
  NDV_CHECK_MSG(info.ok(), "%s", info.status().ToString().c_str());
  return info->columns[static_cast<size_t>(c)].blocks;
}

void ExpectPackedGathersMatchHeap(const Table& heap, PackCodecChoice codec) {
  const Table pack = OpenAsPack(heap, codec);
  for (int64_t c = 0; c < heap.NumColumns(); ++c) {
    SCOPED_TRACE(heap.column_name(c));
    ExpectGathersMatchPerRow(pack.column(c));
    for (int64_t row = 0; row < heap.column(c).size(); ++row) {
      ASSERT_EQ(pack.column(c).HashAt(row), heap.column(c).HashAt(row));
    }
  }
}

TEST(BlockedBatchHashTest, EveryDeltaWidthMatchesHashAt) {
  Table heap;
  for (const int width : {0, 1, 2, 4, 8}) {
    heap.AddColumn("delta" + std::to_string(width),
                   DeltaWidthColumn(width, 101 + width));
    // Every block is coded at the width the column was built for.
    for (const PackV2BlockInfo& block :
         ColumnBlocks(heap, PackCodecChoice::kForceDelta,
                      heap.NumColumns() - 1)) {
      ASSERT_EQ(block.codec, PackBlockCodec::kDelta);
      ASSERT_EQ(block.param, width);
    }
  }
  ExpectPackedGathersMatchHeap(heap, PackCodecChoice::kForceDelta);
}

TEST(BlockedBatchHashTest, EveryDictWidthMatchesHashAt) {
  Table heap;
  heap.AddColumn("codes", WideDictColumn());
  std::vector<int> widths;
  for (const PackV2BlockInfo& block :
       ColumnBlocks(heap, PackCodecChoice::kForceDict, 0)) {
    ASSERT_EQ(block.codec, PackBlockCodec::kDictCodes);
    widths.push_back(block.param);
  }
  for (const int width : {1, 2, 4}) {
    EXPECT_NE(std::find(widths.begin(), widths.end(), width), widths.end())
        << "no block of width " << width;
  }
  EXPECT_EQ(widths.back(), 4);  // The short last block.
  ExpectPackedGathersMatchHeap(heap, PackCodecChoice::kForceDict);
}

// Block sizes that are not a power of two split rows by division, not by
// shift and mask; 3 leaves two deltas per block (all in the short final
// chunk), 100 a full chunk plus a short one at width 1.
TEST(BlockedBatchHashTest, GatherMatchesHashAtAtBlockSizesNotPowersOfTwo) {
  Table heap = MakeHeapTable();
  heap.AddColumn("delta1", DeltaWidthColumn(1, 211));
  heap.AddColumn("delta2", DeltaWidthColumn(2, 212));
  for (const int64_t block_rows : {3, 100}) {
    for (const PackCodecChoice codec :
         {PackCodecChoice::kForceDelta, PackCodecChoice::kForceDict}) {
      SCOPED_TRACE(std::to_string(block_rows) + " rows per block, " +
                   PackCodecChoiceName(codec));
      const Table pack = OpenAsPack(heap, codec, block_rows);
      for (int64_t c = 0; c < pack.NumColumns(); ++c) {
        SCOPED_TRACE(pack.column_name(c));
        ExpectGathersMatchPerRow(pack.column(c), block_rows);
        for (int64_t row = 0; row < heap.column(c).size(); ++row) {
          ASSERT_EQ(pack.column(c).HashAt(row), heap.column(c).HashAt(row));
        }
      }
    }
  }
}

// End to end over the in-place gather: a sampled ANALYZE of an auto-codec
// pack (delta-coded sorted keys, dict-coded labels, raw doubles and
// skewed ints) publishes exactly what it publishes for the heap table.
TEST(BlockedBatchHashTest, AnalyzeOfAnAutoCodecPackEqualsTheHeapTable) {
  Rng rng(139);
  std::vector<int64_t> keys;
  std::vector<double> scores;
  std::vector<std::string> labels;
  std::vector<int64_t> items;
  int64_t key = 1 << 20;
  for (int64_t i = 0; i < 20000; ++i) {
    key += 1 + static_cast<int64_t>(rng.NextBounded(4));
    keys.push_back(key);
    scores.push_back(rng.NextDouble());
    labels.push_back("label-" + std::to_string(rng.NextBounded(50)));
    items.push_back(static_cast<int64_t>(rng.NextBounded(3000) *
                                         rng.NextBounded(3000)));
  }
  Table heap;
  heap.AddColumn("key", std::make_unique<Int64Column>(std::move(keys)));
  heap.AddColumn("score", std::make_unique<DoubleColumn>(std::move(scores)));
  heap.AddColumn("label", std::make_unique<StringColumn>(labels));
  heap.AddColumn("item", std::make_unique<Int64Column>(std::move(items)));
  const Table pack = OpenAsPack(heap, PackCodecChoice::kAutoCodec);
  // The pack does hold compressed blocks of both kinds.
  for (const int64_t c : {0, 2}) {
    const PackV2BlockInfo block =
        ColumnBlocks(heap, PackCodecChoice::kAutoCodec, c).front();
    EXPECT_NE(block.codec, PackBlockCodec::kRaw) << heap.column_name(c);
  }
  for (const uint64_t seed : {1, 2, 3}) {
    AnalyzeOptions options;
    options.sample_fraction = 0.02;
    options.seed = seed;
    for (const int threads : {1, 4}) {
      options.threads = threads;
      EXPECT_EQ(AnalyzeTable(pack, options).Serialize(),
                AnalyzeTable(heap, options).Serialize())
          << "seed " << seed << ", threads " << threads;
    }
  }
}

TEST(BlockedBatchHashTest, RawBlocksNeverDecode) {
  const Table pack = OpenAsPack(MakeHeapTable(), PackCodecChoice::kForceRaw);
  Rng rng(83);
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < kPackRows; ++i) rows.push_back(i);
  rng.Shuffle(rows);
  std::vector<uint64_t> out(rows.size());
  const int64_t before = BlockDecodeCount();
  for (int64_t c = 0; c < pack.NumColumns(); ++c) {
    pack.column(c).HashRange(rows, out.data());
  }
  EXPECT_EQ(BlockDecodeCount(), before);
}

TEST(ParallelExactNdvTest, ThreadCountDoesNotChangeTheAnswer) {
  // Big enough to cross the parallel-scan threshold (2 * 65536 rows).
  Rng rng(61);
  std::vector<int64_t> values;
  constexpr int64_t kRows = 300000;
  values.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(90000)));
  }
  const Int64Column column(std::move(values));

  const int64_t serial = ExactDistinctHashSet(column, 1);
  const int64_t sorted = ExactDistinctSorted(column);
  EXPECT_EQ(serial, sorted);
  for (int threads : {2, 3, 4, 8}) {
    EXPECT_EQ(ExactDistinctHashSet(column, threads), serial)
        << "threads=" << threads;
  }
  // threads=0 resolves via NDV_THREADS / hardware concurrency; still equal.
  EXPECT_EQ(ExactDistinctHashSet(column, 0), serial);
}

TEST(ParallelExactNdvTest, SmallColumnsStaySerialAndCorrect) {
  const Int64Column column({1, 2, 3, 2, 1});
  for (int threads : {0, 1, 4}) {
    EXPECT_EQ(ExactDistinctHashSet(column, threads), 3);
  }
  const Int64Column empty(std::vector<int64_t>{});
  EXPECT_EQ(ExactDistinctHashSet(empty, 8), 0);
}

}  // namespace
}  // namespace ndv
