#ifndef NDV_STORAGE_PACK_WRITER_H_
#define NDV_STORAGE_PACK_WRITER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/pack_codec.h"
#include "table/table.h"

namespace ndv {

// Streaming ndvpack writer (DESIGN.md §15). PackWriter emits the file
// incrementally — one codec'd block (block_rows values) at a time — so a
// table far larger than RAM packs in O(block + dictionary) memory. The
// column directory and both checksums are finalized at close; the file
// path goes through the write-temp + fsync + rename seam (common/
// file_io.h), so a crash mid-pack never leaves a half-written file at the
// destination.
//
// v4 wire layout (all integers little-endian; v3 had the same bytes under
// another checksum):
//
//   [ 0..8)   magic "NDVPACK4"
//   [ 8..12)  uint32 version (4)
//   [12..16)  uint32 column_count
//   [16..24)  uint64 row_count
//   [24..32)  uint64 block_rows (rows per block; last block may be short)
//   [32..40)  uint64 directory_offset
//   [40..48)  uint64 directory_length
//   [48..56)  uint64 header checksum (Crc64Nvme of bytes [0, 48))
//   [56..)    block payloads, 8-aligned each, then per-string-column
//             dictionaries (uint64 offsets array 8-aligned, then the blob)
//   directory_offset ..       per-column entries, parsed sequentially:
//     uint32 name_length, name bytes,
//     uint32 type (0 = int64, 1 = double, 2 = string),
//     string only: uint64 dict_count, uint64 dict_offsets_offset,
//                  uint64 dict_blob_offset, uint64 dict_blob_length
//     uint32 block_count, then per block:
//       uint8 codec, uint8 param, uint16 reserved (0),
//       uint32 rows, uint64 offset, uint64 length
//   [size-8..size) uint64 trailer checksum (Crc64Nvme of bytes
//                  [kPackV2HeaderBytes, size - 8); the CRC-64/NVME is
//                  defined at Crc64Nvme, common/simd_hash.h)
//
// Two checksums because the header is back-patched: the payload/directory
// stream folds incrementally as it is emitted (the writer never rereads
// it), and the header — written last into its reserved slot — carries its
// own. Every byte of the file is covered by exactly one of the two.

struct PackWriteOptions {
  int64_t block_rows = kDefaultPackBlockRows;
  PackCodecChoice codec = PackCodecChoice::kAutoCodec;
};

class PackWriter {
 public:
  // Streams to `path` via a temp file; the destination appears (with both
  // checksums intact) only at a successful Finalize.
  [[nodiscard]] static StatusOr<std::unique_ptr<PackWriter>> Create(
      const std::string& path, const PackWriteOptions& options = {});

  // Streams into `*out` (cleared first). Byte-identical to the file path:
  // tests diff the two and tools reuse one code path for stdout pipes.
  static std::unique_ptr<PackWriter> CreateInMemory(
      std::string* out, const PackWriteOptions& options = {});

  // Abandoning a writer without Finalize removes the temp file.
  ~PackWriter();

  PackWriter(const PackWriter&) = delete;
  PackWriter& operator=(const PackWriter&) = delete;

  // Begins the next column. Columns are written strictly one at a time:
  // StartColumn, appends of the matching type, FinishColumn.
  [[nodiscard]] Status StartColumn(std::string_view name, ColumnType type);

  // Append rows to the open column. Any chunking yields the same file —
  // the writer re-blocks internally at block_rows.
  [[nodiscard]] Status AppendInt64s(std::span<const int64_t> values);
  [[nodiscard]] Status AppendDoubles(std::span<const double> values);
  [[nodiscard]] Status AppendString(std::string_view value);

  // Closes the open column (flushes its partial block + dictionary).
  // Every column must end with the same row count; the first finished
  // column fixes it.
  [[nodiscard]] Status FinishColumn();

  // Writes the directory, trailer checksum, and header, then (file mode)
  // fsyncs and renames into place. No appends may follow.
  [[nodiscard]] Status Finalize();

 private:
  class Sink;
  class FileSink;
  class StringSink;

  struct BlockEntry {
    PackBlockCodec codec = PackBlockCodec::kRaw;
    uint8_t param = 0;
    uint32_t rows = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  struct ColumnEntry {
    std::string name;
    ColumnType type = ColumnType::kInt64;
    int64_t rows = 0;
    std::vector<BlockEntry> blocks;
    // String columns only.
    uint64_t dict_count = 0;
    uint64_t dict_offsets_offset = 0;
    uint64_t dict_blob_offset = 0;
    uint64_t dict_blob_length = 0;
  };

  PackWriter(std::unique_ptr<Sink> sink, const PackWriteOptions& options);

  // Streams `bytes` through the trailer checksummer into the sink.
  Status Emit(std::string_view bytes);
  // Pads the stream with zeros to the next 8-byte boundary.
  Status PadTo8();
  // Encodes and emits the buffered block of the open column, if any.
  Status FlushBlock();
  // Emits the open string column's dictionary (offsets + blob).
  Status FlushDictionary();

  std::unique_ptr<Sink> sink_;
  PackWriteOptions options_;
  uint64_t offset_ = kPackV2HeaderBytes;  // next byte's file offset
  PackChecksummer trailer_sum_;

  std::vector<ColumnEntry> columns_;
  bool column_open_ = false;
  bool finalized_ = false;
  bool failed_ = false;       // a failed write poisons the writer
  int64_t row_count_ = -1;    // fixed by the first FinishColumn

  // Open-column block buffers (at most block_rows elements live).
  std::vector<int64_t> int64_buffer_;
  std::vector<double> double_buffer_;
  std::vector<int32_t> code_buffer_;
  std::string encode_buffer_;  // reused per-block encode scratch

  // Open string column's dictionary (the one unavoidable O(distinct)
  // writer state; rows stream through in O(block)). Transparent hashing so
  // AppendString(string_view) interns without a per-row allocation.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  // NOLINTNEXTLINE(ndv-no-std-hash-container): interning map is rebuilt
  // per column and never serialized, so iteration order cannot leak into
  // file bytes; transparent lookup needs the std container here.
  std::unordered_map<std::string, int32_t, StringHash, std::equal_to<>>
      dict_index_;
  std::vector<std::string> dict_entries_;
};

// Streams every row of table column `c` into `writer` in bounded chunks.
// Accepts heap and blocked columns, so repacking never materializes a full
// column. Caller brackets with StartColumn /
// FinishColumn.
[[nodiscard]] Status AppendTableColumn(PackWriter& writer, const Table& table,
                                       int64_t c);

// One-call conveniences over the streaming writer.
std::string SerializePackV2(const Table& table,
                            const PackWriteOptions& options = {});
[[nodiscard]] Status WritePackFileV2(const Table& table,
                                     const std::string& path,
                                     const PackWriteOptions& options = {});

}  // namespace ndv

#endif  // NDV_STORAGE_PACK_WRITER_H_
