// Batch hashing (HashRange / HashSlice / HashAll) must be bit-identical to
// the per-row HashAt path for every column type — heap columns and the
// blocked columns of an ndvpack v2 pack under every codec — and the
// parallel exact-NDV scan must return the same count at every thread
// count. Blocked HashRange groups its gather list by block, so it is also
// checked to decode each touched compressed block exactly once and to
// leave sampled profiles independent of the gather order.

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
Table OpenAsPack(const Table& heap, PackCodecChoice codec) {
  PackWriteOptions options;
  options.block_rows = kPackBlockRows;
  options.codec = codec;
  const std::string bytes = SerializePackV2(heap, options);
  auto words = std::make_shared<std::vector<uint64_t>>((bytes.size() + 7) / 8);
  std::memcpy(words->data(), bytes.data(), bytes.size());
  auto opened = OpenPackV2FromBytes(
      {reinterpret_cast<const uint8_t*>(words->data()), bytes.size()}, words);
  NDV_CHECK_MSG(opened.ok(), "%s", opened.status().ToString().c_str());
  return std::move(opened).value();
}

// The gather lists a blocked HashRange must answer in request order.
std::vector<std::vector<int64_t>> GatherLists(int64_t n) {
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
  const int64_t last_begin = (n - 1) / kPackBlockRows * kPackBlockRows;
  for (int64_t row = last_begin; row < n; ++row) {
    one_block.push_back(row);
    one_block.push_back(row);
  }
  rng.Shuffle(one_block);
  lists.push_back(one_block);
  // Empty.
  lists.emplace_back();
  return lists;
}

void ExpectGathersMatchPerRow(const Column& column) {
  for (const std::vector<int64_t>& rows : GatherLists(column.size())) {
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

// The regression guard for gather order that does not depend on timing: a
// shuffled gather over k compressed blocks decodes exactly k blocks, where
// a per-row gather through the one-block cache decodes about one per row.
TEST(BlockedBatchHashTest, ShuffledGatherDecodesEachTouchedBlockOnce) {
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
    // Leave block 0 in this thread's decode cache, so none of the touched
    // blocks starts out decoded.
    (void)column.HashAt(0);

    std::vector<uint64_t> out(rows.size());
    const int64_t before = BlockDecodeCount();
    column.HashRange(rows, out.data());
    EXPECT_EQ(BlockDecodeCount() - before,
              static_cast<int64_t>(touched_blocks.size()));
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(out[i], column.HashAt(rows[i]));
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
