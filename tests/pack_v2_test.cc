// The ndvpack contract: a blocked, codec-compressed pack is the same
// table. Heap -> pack -> blocked columns must equal the heap columns
// value-for-value and hash-for-hash (including NaN / -0.0 and multi-block
// columns with short tails), the streaming file writer must emit the same
// bytes as the in-memory writer under any append chunking, legacy v1, v2
// and v3 packs must be rejected by magic through every entry point, sampling,
// ANALYZE and distributed ANALYZE over blocked columns must be
// bit-identical to heap at every thread count, and the parser must reject
// every single-byte corruption with a Status.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/stats_catalog.h"
#include "common/check.h"
#include "distributed/distributed_analyze.h"
#include "storage/blocked_column.h"
#include "storage/ndvpack.h"
#include "storage/pack_reader.h"
#include "storage/pack_writer.h"
#include "storage/table_loader.h"
#include "table/table.h"

namespace ndv {
namespace {

// Copies serialized bytes into an 8-byte-aligned shared buffer (the
// parser's alignment contract) that the opened table can retain.
class AlignedImage {
 public:
  explicit AlignedImage(const std::string& bytes)
      : words_(std::make_shared<std::vector<uint64_t>>((bytes.size() + 7) /
                                                       8)),
        size_(bytes.size()) {
    if (!bytes.empty()) {
      std::memcpy(words_->data(), bytes.data(), bytes.size());
    }
  }

  std::span<const uint8_t> bytes() const {
    return {reinterpret_cast<const uint8_t*>(words_->data()), size_};
  }
  std::shared_ptr<const void> owner() const { return words_; }

 private:
  std::shared_ptr<std::vector<uint64_t>> words_;
  size_t size_ = 0;
};

Table OpenV2OrDie(const AlignedImage& image) {
  auto opened = OpenPackV2FromBytes(image.bytes(), image.owner());
  NDV_CHECK_MSG(opened.ok(), "%s", opened.status().ToString().c_str());
  return std::move(opened).value();
}

// Rows chosen so multi-block configs get several full blocks plus a short
// tail, and every value class the hashers canonicalize is present.
Table MakeMixedTable(int64_t rows = 23) {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  for (int64_t i = 0; i < rows; ++i) {
    switch (i % 5) {
      case 0: ints.push_back(i * 3); break;
      case 1: ints.push_back(-i); break;
      case 2: ints.push_back(std::numeric_limits<int64_t>::min()); break;
      case 3: ints.push_back(std::numeric_limits<int64_t>::max()); break;
      default: ints.push_back(42); break;
    }
    switch (i % 6) {
      case 0: doubles.push_back(0.0); break;
      case 1: doubles.push_back(-0.0); break;
      case 2:
        doubles.push_back(std::numeric_limits<double>::quiet_NaN());
        break;
      case 3:
        doubles.push_back(-std::numeric_limits<double>::infinity());
        break;
      case 4: doubles.push_back(static_cast<double>(i) * 1.5); break;
      default: doubles.push_back(5e-324); break;  // denormal
    }
    switch (i % 4) {
      case 0: strings.emplace_back(); break;
      case 1: strings.push_back("comma,quote\"newline\n"); break;
      case 2: strings.push_back("repeat"); break;
      default: strings.push_back("row " + std::to_string(i)); break;
    }
  }
  Table table;
  table.AddColumn("ints", std::make_unique<Int64Column>(std::move(ints)));
  table.AddColumn("doubles",
                  std::make_unique<DoubleColumn>(std::move(doubles)));
  table.AddColumn("strings",
                  std::make_unique<StringColumn>(std::move(strings)));
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
    EXPECT_EQ(a.HashAll(), b.HashAll());
    for (int64_t row = 0; row < a.size(); ++row) {
      ASSERT_EQ(a.HashAt(row), b.HashAt(row)) << "row " << row;
      ASSERT_EQ(a.ValueToString(row), b.ValueToString(row)) << "row " << row;
    }
    // Batch kernels across arbitrary (block-misaligned) slices.
    if (a.size() >= 3) {
      const int64_t begin = 1;
      const int64_t end = a.size() - 1;
      std::vector<uint64_t> ha(static_cast<size_t>(end - begin));
      std::vector<uint64_t> hb(ha.size());
      a.HashSlice(begin, end, ha.data());
      b.HashSlice(begin, end, hb.data());
      EXPECT_EQ(ha, hb);
    }
  }
}

// Process-unique: ctest runs this binary twice in parallel (native and
// NDV_SIMD=scalar), so shared fixture names would race.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  NDV_CHECK_MSG(in.good(), "cannot read %s", path.c_str());
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

TEST(PackV2Test, RoundTripsEveryCodecAndBlocking) {
  const Table table = MakeMixedTable();
  for (const auto codec :
       {PackCodecChoice::kAutoCodec, PackCodecChoice::kForceRaw,
        PackCodecChoice::kForceDelta, PackCodecChoice::kForceDict}) {
    for (const int64_t block_rows : {1, 3, 8, 4096}) {
      SCOPED_TRACE(std::string(PackCodecChoiceName(codec)) + " block_rows=" +
                   std::to_string(block_rows));
      PackWriteOptions options;
      options.codec = codec;
      options.block_rows = block_rows;
      const AlignedImage image(SerializePackV2(table, options));
      const Table opened = OpenV2OrDie(image);
      ExpectTablesEqual(table, opened);
    }
  }
}

TEST(PackV2Test, EmptyAndSingleRowTablesRoundTrip) {
  Table empty;
  empty.AddColumn("ints",
                  std::make_unique<Int64Column>(std::vector<int64_t>{}));
  empty.AddColumn("strings", std::make_unique<StringColumn>(
                                 std::vector<std::string>{}));
  const AlignedImage empty_image(SerializePackV2(empty));
  ExpectTablesEqual(empty, OpenV2OrDie(empty_image));

  const Table one = MakeMixedTable(1);
  const AlignedImage one_image(SerializePackV2(one));
  ExpectTablesEqual(one, OpenV2OrDie(one_image));
}

TEST(PackV2Test, StreamingFileMatchesInMemoryByteForByte) {
  const Table table = MakeMixedTable(100);
  PackWriteOptions options;
  options.block_rows = 16;

  const std::string in_memory = SerializePackV2(table, options);
  const std::string path = TempPath("pack_v2_stream.ndvpack");
  const Status written = WritePackFileV2(table, path, options);
  ASSERT_TRUE(written.ok()) << written.ToString();
  EXPECT_EQ(ReadFileOrDie(path), in_memory);

  // And the file opens through the public loader.
  auto loaded = LoadTableAuto(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTablesEqual(table, *loaded);
}

TEST(PackV2Test, AppendChunkingDoesNotChangeTheBytes) {
  std::vector<int64_t> values(100);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i * i);
  }
  PackWriteOptions options;
  options.block_rows = 16;

  const auto write_with_chunk = [&](size_t chunk) {
    std::string bytes;
    auto writer = PackWriter::CreateInMemory(&bytes, options);
    NDV_CHECK(writer->StartColumn("v", ColumnType::kInt64).ok());
    for (size_t i = 0; i < values.size(); i += chunk) {
      const size_t take = std::min(chunk, values.size() - i);
      NDV_CHECK(
          writer->AppendInt64s({values.data() + i, take}).ok());
    }
    NDV_CHECK(writer->FinishColumn().ok());
    NDV_CHECK(writer->Finalize().ok());
    return bytes;
  };

  const std::string whole = write_with_chunk(values.size());
  for (const size_t chunk : {1u, 3u, 16u, 17u, 99u}) {
    EXPECT_EQ(write_with_chunk(chunk), whole) << "chunk " << chunk;
  }
}

TEST(PackV2Test, RepackIsAFixedPoint) {
  const Table table = MakeMixedTable(50);
  PackWriteOptions options;
  options.block_rows = 8;
  const std::string first = SerializePackV2(table, options);
  const AlignedImage image(first);
  // Repacking the blocked columns (decode -> re-encode every block)
  // reproduces the image byte-for-byte under the same options.
  const std::string second = SerializePackV2(OpenV2OrDie(image), options);
  EXPECT_EQ(first, second);
}

TEST(PackV2Test, MismatchedColumnLengthsFailFinishColumn) {
  std::string bytes;
  auto writer = PackWriter::CreateInMemory(&bytes);
  const std::vector<int64_t> three = {1, 2, 3};
  const std::vector<int64_t> two = {1, 2};
  ASSERT_TRUE(writer->StartColumn("a", ColumnType::kInt64).ok());
  ASSERT_TRUE(writer->AppendInt64s(three).ok());
  ASSERT_TRUE(writer->FinishColumn().ok());
  ASSERT_TRUE(writer->StartColumn("b", ColumnType::kInt64).ok());
  ASSERT_TRUE(writer->AppendInt64s(two).ok());
  const Status mismatch = writer->FinishColumn();
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
}

TEST(PackV2Test, FailedWriteLeavesNoDestinationFile) {
  // A writer poisoned by a row-count mismatch must refuse to finalize, and
  // abandoning it must leave neither the destination nor the temp file
  // (the write-temp + fsync + rename seam).
  const std::string path = TempPath("pack_v2_atomic.ndvpack");
  {
    auto writer = PackWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    const std::vector<int64_t> three = {1, 2, 3};
    const std::vector<int64_t> two = {1, 2};
    ASSERT_TRUE((*writer)->StartColumn("a", ColumnType::kInt64).ok());
    ASSERT_TRUE((*writer)->AppendInt64s(three).ok());
    ASSERT_TRUE((*writer)->FinishColumn().ok());
    ASSERT_TRUE((*writer)->StartColumn("b", ColumnType::kInt64).ok());
    ASSERT_TRUE((*writer)->AppendInt64s(two).ok());
    ASSERT_FALSE((*writer)->FinishColumn().ok());
    ASSERT_FALSE((*writer)->Finalize().ok());
  }
  std::ifstream dest(path, std::ios::binary);
  EXPECT_FALSE(dest.good()) << "failed pack left " << path;
  std::ifstream temp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(temp.good()) << "failed pack left " << path << ".tmp";
}

// Every entry point rejects each image in `images` with InvalidArgument
// naming `version` ("v1", "v2", "v3") as unsupported.
void ExpectRejectedByMagic(const std::vector<std::string>& images,
                           const std::string& version) {
  const std::string want = "ndvpack " + version +
                           " is unsupported; repack the source data as v4";
  const auto expect_error = [&](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find(want), std::string::npos)
        << status.ToString();
  };
  for (const std::string& bytes : images) {
    SCOPED_TRACE(std::to_string(bytes.size()) + " bytes");
    const AlignedImage image(bytes);
    const auto info = InspectPackV2(image.bytes());
    ASSERT_FALSE(info.ok());
    expect_error(info.status());

    const std::string path = TempPath("pack_v2_legacy_" + version +
                                      ".ndvpack");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const auto opened = OpenPackFile(path);
    ASSERT_FALSE(opened.ok());
    expect_error(opened.status());
    EXPECT_NE(opened.status().message().find(path), std::string::npos);

    // The transparent loader routes the file to the pack path by its
    // magic; it never reaches the CSV parser.
    const auto loaded = LoadTableAuto(path);
    ASSERT_FALSE(loaded.ok());
    expect_error(loaded.status());
  }
}

TEST(PackV2Test, V1FilesAreRejectedByMagic) {
  // A hand-built v1 header: magic, version 1, one column, three rows, and
  // a directory offset/length, as the removed v1 writer laid them out.
  std::string v1("NDVPACK1");
  const uint32_t version = 1;
  const uint32_t columns = 1;
  const uint64_t fields[] = {3, 40, 16};
  v1.append(reinterpret_cast<const char*>(&version), sizeof(version));
  v1.append(reinterpret_cast<const char*>(&columns), sizeof(columns));
  v1.append(reinterpret_cast<const char*>(fields), sizeof(fields));

  // The header alone and the header with trailing bytes both name v1: the
  // magic is checked before any length or checksum.
  ExpectRejectedByMagic({v1, v1 + std::string(64, '\0')}, "v1");
}

// A bare header of `version` (magic and version field), and a complete
// current image relabelled with both: the magic is checked before any
// length or checksum, so neither the short length nor the (now wrong)
// checksums are reported.
std::vector<std::string> RelabelledImages(uint32_t version) {
  const std::string magic = "NDVPACK" + std::to_string(version);
  std::string header = magic;
  header.append(reinterpret_cast<const char*>(&version), sizeof(version));

  std::string relabelled = SerializePackV2(MakeMixedTable(11));
  relabelled.replace(0, magic.size(), magic);
  relabelled.replace(magic.size(), sizeof(version),
                     reinterpret_cast<const char*>(&version),
                     sizeof(version));
  return {header, relabelled};
}

TEST(PackV2Test, V2FilesAreRejectedByMagic) {
  // v2 had today's layout under a serial checksum.
  ExpectRejectedByMagic(RelabelledImages(2), "v2");
}

TEST(PackV2Test, V3FilesAreRejectedByMagic) {
  // v3 had today's layout under an 8-lane Hash64 checksum.
  ExpectRejectedByMagic(RelabelledImages(3), "v3");
}

TEST(PackV2Test, CompressesDeltaFriendlyAndLowCardinalityData) {
  // Sorted int64 keys and a low-cardinality string column: the auto codec
  // must beat the raw (v1-equivalent) encoding on the wire.
  std::vector<int64_t> sorted(20000);
  for (size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = 1000000 + static_cast<int64_t>(i) * 7;
  }
  std::vector<std::string> labels;
  labels.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    labels.push_back("state_" + std::to_string(i % 50));
  }
  Table table;
  table.AddColumn("key", std::make_unique<Int64Column>(std::move(sorted)));
  table.AddColumn("label",
                  std::make_unique<StringColumn>(std::move(labels)));

  PackWriteOptions raw;
  raw.codec = PackCodecChoice::kForceRaw;
  const std::string raw_bytes = SerializePackV2(table, raw);
  const std::string auto_bytes = SerializePackV2(table);
  EXPECT_LT(auto_bytes.size(), raw_bytes.size() / 2)
      << "auto " << auto_bytes.size() << " vs raw " << raw_bytes.size();

  // The inspector agrees: every key block is delta, every label block dict.
  const AlignedImage image(auto_bytes);
  auto info = InspectPackV2(image.bytes());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_EQ(info->columns.size(), 2u);
  for (const PackV2BlockInfo& block : info->columns[0].blocks) {
    EXPECT_EQ(block.codec, PackBlockCodec::kDelta);
  }
  for (const PackV2BlockInfo& block : info->columns[1].blocks) {
    EXPECT_EQ(block.codec, PackBlockCodec::kDictCodes);
  }
  EXPECT_LT(info->columns[0].packed_bytes, info->columns[0].raw_bytes);
  EXPECT_LT(info->columns[1].packed_bytes, info->columns[1].raw_bytes);

  // And the compressed image still equals the source table.
  ExpectTablesEqual(table, OpenV2OrDie(image));
}

TEST(PackV2Test, EverySingleByteCorruptionIsRejected) {
  const Table table = MakeMixedTable(11);
  PackWriteOptions options;
  options.block_rows = 4;
  const std::string bytes = SerializePackV2(table, options);

  // Both checksums (header over [0, 48), trailer over the payload) cover
  // every byte, so no single-byte flip may parse.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    const AlignedImage image(corrupt);
    const auto info = InspectPackV2(image.bytes());
    EXPECT_FALSE(info.ok()) << "flip at byte " << i << " parsed";
    const auto opened = OpenPackV2FromBytes(image.bytes(), image.owner());
    EXPECT_FALSE(opened.ok()) << "flip at byte " << i << " opened";
  }

  // Truncations at every length short of the full image fail too.
  for (const size_t cut : {size_t{0}, size_t{7}, size_t{8}, size_t{55},
                           size_t{56}, bytes.size() - 1}) {
    const AlignedImage image(bytes.substr(0, cut));
    EXPECT_FALSE(InspectPackV2(image.bytes()).ok()) << "cut " << cut;
  }
}

TEST(PackV2Test, AnalyzeMatchesHeapAtEveryThreadCount) {
  const Table heap = MakeMixedTable(5000);
  PackWriteOptions options;
  options.block_rows = 512;
  const AlignedImage image(SerializePackV2(heap, options));
  const Table blocked = OpenV2OrDie(image);

  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    AnalyzeOptions analyze;
    analyze.sample_fraction = 0.2;
    analyze.seed = 17;
    analyze.threads = threads;
    const StatsCatalog from_heap = AnalyzeTable(heap, analyze);
    const StatsCatalog from_blocked = AnalyzeTable(blocked, analyze);
    ASSERT_EQ(from_heap.entries().size(), from_blocked.entries().size());
    for (size_t c = 0; c < from_heap.entries().size(); ++c) {
      const ColumnStats& a = from_heap.entries()[c];
      const ColumnStats& b = from_blocked.entries()[c];
      EXPECT_EQ(a.estimate, b.estimate) << a.column_name;
      EXPECT_EQ(a.lower, b.lower) << a.column_name;
      EXPECT_EQ(a.upper, b.upper) << a.column_name;
      EXPECT_EQ(a.sample_rows, b.sample_rows) << a.column_name;
    }

    // Exact full scans agree too (the parallel distinct kernel).
    for (int64_t c = 0; c < heap.NumColumns(); ++c) {
      EXPECT_EQ(ExactDistinctHashSet(heap.column(c), threads),
                ExactDistinctHashSet(blocked.column(c), threads))
          << heap.column_name(c);
    }
  }
}

TEST(PackV2Test, DistributedAnalyzeMatchesHeapAndDecodesNoBlock) {
  // Distributed workers draw rows with Floyd and hash them in one gather
  // that reads blocks in place: over compressed blocks the result must
  // equal the heap column's at every thread count, and no worker decodes
  // a block.
  const Table heap = MakeMixedTable(20000);
  PackWriteOptions write;
  write.block_rows = 256;
  const AlignedImage image(SerializePackV2(heap, write));
  const Table blocked = OpenV2OrDie(image);

  DistributedAnalyzeOptions options;
  options.partitions = 8;
  options.sample_rows = 500;
  options.seed = 99;
  for (const int threads : {1, 4}) {
    options.threads = threads;
    for (int64_t c = 0; c < heap.NumColumns(); ++c) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " column " +
                   heap.column_name(c));
      auto from_heap =
          DistributedAnalyze(heap.column(c), heap.column_name(c), options);
      auto from_blocked = DistributedAnalyze(blocked.column(c),
                                             blocked.column_name(c), options);
      ASSERT_TRUE(from_heap.ok()) << from_heap.status().ToString();
      ASSERT_TRUE(from_blocked.ok()) << from_blocked.status().ToString();
      EXPECT_EQ(from_heap->stats.estimate, from_blocked->stats.estimate);
      EXPECT_EQ(from_heap->stats.lower, from_blocked->stats.lower);
      EXPECT_EQ(from_heap->stats.upper, from_blocked->stats.upper);
      EXPECT_EQ(from_heap->stats.sample_rows,
                from_blocked->stats.sample_rows);
      EXPECT_EQ(from_heap->stats.sample_distinct,
                from_blocked->stats.sample_distinct);
      EXPECT_EQ(from_heap->scanned_bounds.lower,
                from_blocked->scanned_bounds.lower);
      EXPECT_EQ(from_heap->scanned_bounds.upper,
                from_blocked->scanned_bounds.upper);
      EXPECT_EQ(from_heap->scanned_bounds.estimate,
                from_blocked->scanned_bounds.estimate);
    }
  }

  write.codec = PackCodecChoice::kForceDelta;
  const AlignedImage delta_image(SerializePackV2(heap, write));
  const Table delta = OpenV2OrDie(delta_image);
  const auto* ints =
      dynamic_cast<const BlockedInt64Column*>(&delta.column(0));
  ASSERT_NE(ints, nullptr);
  const auto& blocks = ints->blocks();
  ASSERT_TRUE(std::any_of(blocks.begin(), blocks.end(),
                          [](const PackBlockRef& block) {
                            return block.codec != PackBlockCodec::kRaw;
                          }));
  options.threads = 1;
  const int64_t before = BlockDecodeCount();
  ASSERT_TRUE(DistributedAnalyze(*ints, "ints", options).ok());
  EXPECT_EQ(BlockDecodeCount() - before, 0);
}

}  // namespace
}  // namespace ndv
