// BlockSampleColumn's single promise: for any block size, any range, and
// any storage backend, the reservoir it produces is bit-identical to
// feeding rows [begin, end) one by one through ReservoirSamplerL::Add.
// These tests pin that promise against the reference per-row loop.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sample/block_sampler.h"
#include "sample/samplers.h"
#include "storage/pack_reader.h"
#include "storage/pack_writer.h"
#include "table/column.h"
#include "table/table.h"

namespace ndv {
namespace {

// The reference semantics: hash every row, Add every hash.
ReservoirSamplerL PerRowSample(const Column& column, int64_t begin,
                               int64_t end, int64_t capacity, Rng rng) {
  ReservoirSamplerL reservoir(capacity, rng);
  for (int64_t row = begin; row < end; ++row) {
    reservoir.Add(column.HashAt(row));
  }
  return reservoir;
}

void ExpectBlockMatchesPerRow(const Column& column, int64_t begin,
                              int64_t end, int64_t capacity, uint64_t seed,
                              int64_t block_rows) {
  SCOPED_TRACE("begin=" + std::to_string(begin) + " end=" +
               std::to_string(end) + " capacity=" + std::to_string(capacity) +
               " block_rows=" + std::to_string(block_rows));
  const ReservoirSamplerL expected =
      PerRowSample(column, begin, end, capacity, Rng(seed));
  BlockSampleOptions options;
  options.block_rows = block_rows;
  const ReservoirSamplerL actual =
      BlockSampleColumn(column, begin, end, capacity, Rng(seed), options);
  EXPECT_EQ(expected.items_seen(), actual.items_seen());
  EXPECT_EQ(expected.sample(), actual.sample());
}

std::unique_ptr<Int64Column> MakeInts(int64_t n, uint64_t seed) {
  std::vector<int64_t> values;
  values.reserve(static_cast<size_t>(n));
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(1000)));
  }
  return std::make_unique<Int64Column>(std::move(values));
}

TEST(BlockSamplerTest, MatchesPerRowAcrossBlockSizes) {
  const auto column = MakeInts(10000, 3);
  // block_rows = 1 degenerates to per-row; >= n is one giant block.
  for (const int64_t block_rows : {1, 3, 64, 4096, 20000}) {
    ExpectBlockMatchesPerRow(*column, 0, column->size(), 200, 11, block_rows);
  }
}

TEST(BlockSamplerTest, MatchesPerRowOnUnalignedRanges) {
  const auto column = MakeInts(10000, 5);
  // Partition-style sub-ranges whose begins straddle block boundaries.
  const struct { int64_t begin, end; } ranges[] = {
      {0, 10000}, {1, 9999}, {63, 8191}, {4095, 4097},
      {4096, 8192}, {2500, 7500}, {9000, 10000},
  };
  for (const auto& r : ranges) {
    for (const int64_t block_rows : {64, 4096}) {
      ExpectBlockMatchesPerRow(*column, r.begin, r.end, 100, 17, block_rows);
    }
  }
}

TEST(BlockSamplerTest, MatchesPerRowWhenCapacityCoversRange) {
  const auto column = MakeInts(500, 9);
  // capacity >= rows: the whole scan is fill phase (pure batch hashing).
  ExpectBlockMatchesPerRow(*column, 0, 500, 500, 23, 64);
  ExpectBlockMatchesPerRow(*column, 0, 500, 10000, 23, 64);
  ExpectBlockMatchesPerRow(*column, 100, 400, 300, 23, 64);
}

TEST(BlockSamplerTest, EmptyRangeYieldsEmptyReservoir) {
  const auto column = MakeInts(100, 1);
  const ReservoirSamplerL sampler =
      BlockSampleColumn(*column, 50, 50, 10, Rng(1));
  EXPECT_EQ(sampler.items_seen(), 0);
  EXPECT_TRUE(sampler.sample().empty());
}

TEST(BlockSamplerTest, AllColumnTypes) {
  std::vector<double> doubles;
  std::vector<std::string> strings;
  Rng rng(31);
  for (int64_t i = 0; i < 3000; ++i) {
    doubles.push_back(static_cast<double>(rng.NextBounded(77)) / 4.0);
    strings.push_back("k" + std::to_string(rng.NextBounded(123)));
  }
  const DoubleColumn dcol(std::move(doubles));
  const StringColumn scol(strings);
  for (const Column* column :
       std::initializer_list<const Column*>{&dcol, &scol}) {
    for (const int64_t block_rows : {1, 7, 256}) {
      ExpectBlockMatchesPerRow(*column, 0, column->size(), 64, 41,
                               block_rows);
      ExpectBlockMatchesPerRow(*column, 100, 2900, 64, 41, block_rows);
    }
  }
}

TEST(BlockSamplerTest, RawBlockedColumnsEqualHeapColumns) {
  // The distributed workers' invariant: the same reservoir comes out of a
  // heap column and its pack twin. Raw blocks alias the image in place;
  // 512-row pack blocks make the sampler's blocks straddle pack blocks.
  Table heap;
  heap.AddColumn("i", MakeInts(5000, 13));
  PackWriteOptions write;
  write.codec = PackCodecChoice::kForceRaw;
  write.block_rows = 512;
  const std::string bytes = SerializePackV2(heap, write);
  auto aligned = std::make_shared<std::vector<uint64_t>>((bytes.size() + 7) /
                                                         8);
  std::memcpy(aligned->data(), bytes.data(), bytes.size());
  auto opened = OpenPackV2FromBytes(
      {reinterpret_cast<const uint8_t*>(aligned->data()), bytes.size()},
      aligned);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const Table mapped = *std::move(opened);

  for (const int64_t block_rows : {1, 64, 4096}) {
    BlockSampleOptions options;
    options.block_rows = block_rows;
    const ReservoirSamplerL from_heap = BlockSampleColumn(
        heap.column(0), 0, heap.NumRows(), 150, Rng(47), options);
    const ReservoirSamplerL from_mapped = BlockSampleColumn(
        mapped.column(0), 0, mapped.NumRows(), 150, Rng(47), options);
    EXPECT_EQ(from_heap.sample(), from_mapped.sample())
        << "block_rows=" << block_rows;
    // And both equal the reference loop over the heap column.
    const ReservoirSamplerL reference =
        PerRowSample(heap.column(0), 0, heap.NumRows(), 150, Rng(47));
    EXPECT_EQ(reference.sample(), from_mapped.sample());
  }
}

}  // namespace
}  // namespace ndv
