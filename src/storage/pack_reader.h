#ifndef NDV_STORAGE_PACK_READER_H_
#define NDV_STORAGE_PACK_READER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/pack_codec.h"
#include "table/table.h"

namespace ndv {

// ndvpack reader: validating parser + block-granular table opener
// (layout in storage/pack_writer.h, codecs in storage/pack_codec.h). The
// format is v4; the *V2 names date from the block layout, which v3 and v4
// keep.
//
// Everything is validated before a single column materializes — header
// + trailer checksums, every directory field, every block's structure,
// every dictionary code — so the hot decode paths carry no data-dependent
// checks and malformed input always yields a typed Status
// (fuzz/fuzz_ndvpack_v2.cc holds that line). Opening does NOT decode any
// data: raw blocks alias the mapping and compressed blocks decode lazily
// per block, and a sampled gather reads its rows in place, so it touches
// only the blocks that hold a sampled row.

// Per-block metadata, exposed for the verifier tool and tests.
struct PackV2BlockInfo {
  PackBlockCodec codec = PackBlockCodec::kRaw;
  uint8_t param = 0;
  int64_t rows = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

struct PackV2ColumnInfo {
  std::string_view name;
  ColumnType type = ColumnType::kInt64;
  std::vector<PackV2BlockInfo> blocks;
  // String columns only.
  uint64_t dict_count = 0;
  uint64_t dict_offsets_offset = 0;
  uint64_t dict_blob_offset = 0;
  uint64_t dict_blob_length = 0;

  // Encoded bytes of this column in the file (blocks + dictionary), and
  // what the same data costs uncompressed — the verifier's
  // per-column compression ratio.
  uint64_t packed_bytes = 0;
  uint64_t raw_bytes = 0;
};

struct PackV2Info {
  uint64_t row_count = 0;
  int64_t block_rows = 0;
  uint64_t file_bytes = 0;
  std::vector<PackV2ColumnInfo> columns;
};

// Parses and fully validates one v2 image, returning its metadata. The
// name views index into `bytes` and share its lifetime. `bytes.data()`
// must be 8-aligned (mmap / malloc buffers both are). An image with another
// version's magic fails with InvalidArgument naming that version as
// unsupported, before any length or checksum check.
StatusOr<PackV2Info> InspectPackV2(std::span<const uint8_t> bytes);

// Validates `bytes` and builds a Table of blocked columns over it. Every
// column retains `owner`, which must keep `bytes` alive.
StatusOr<Table> OpenPackV2FromBytes(std::span<const uint8_t> bytes,
                                    std::shared_ptr<const void> owner);

}  // namespace ndv

#endif  // NDV_STORAGE_PACK_READER_H_
