#include "storage/pack_reader.h"

#include <bit>
#include <cstring>
#include <limits>
#include <utility>

#include "common/byte_codec.h"
#include "common/check.h"
#include "common/simd_hash.h"
#include "storage/blocked_column.h"
#include "storage/ndvpack.h"

namespace ndv {

static_assert(std::endian::native == std::endian::little,
              "ndvpack readers alias little-endian payloads in place");

namespace {

constexpr uint32_t kTypeInt64 = 0;
constexpr uint32_t kTypeDouble = 1;
constexpr uint32_t kTypeString = 2;

// Validates a payload region claim [offset, offset + length) inside
// [kPackV2HeaderBytes, payload_end) with `alignment`. Overflow-safe.
Status CheckRegion(uint64_t offset, uint64_t length, uint64_t alignment,
                   uint64_t payload_end, const char* what) {
  if (offset < kPackV2HeaderBytes || offset > payload_end ||
      length > payload_end - offset) {
    return DataLossError("%s [%llu, +%llu) outside payload [%llu, %llu)",
                         what, static_cast<unsigned long long>(offset),
                         static_cast<unsigned long long>(length),
                         static_cast<unsigned long long>(kPackV2HeaderBytes),
                         static_cast<unsigned long long>(payload_end));
  }
  if (offset % alignment != 0) {
    return DataLossError("%s offset %llu not %llu-byte aligned", what,
                         static_cast<unsigned long long>(offset),
                         static_cast<unsigned long long>(alignment));
  }
  return Status::Ok();
}

// Parses + validates the whole image into PackV2Info. Shared by Inspect
// (which returns it) and Open (which builds columns from it).
StatusOr<PackV2Info> ParsePackV2(std::span<const uint8_t> bytes) {
  NDV_CHECK(bytes.empty() ||
            reinterpret_cast<uintptr_t>(bytes.data()) % 8 == 0);

  const std::string_view image(reinterpret_cast<const char*>(bytes.data()),
                               bytes.size());
  // Another version's magic is named before any length or checksum check.
  if (StartsWithPackMagic(image) && !image.starts_with(kPackMagic)) {
    return InvalidArgumentError(
        "ndvpack v%c is unsupported; repack the source data as v%u",
        image[kPackMagicStem.size()], kPackVersion);
  }
  const uint64_t min_bytes = kPackV2HeaderBytes + kPackV2TrailerBytes;
  if (bytes.size() < min_bytes) {
    return DataLossError("truncated pack: %zu bytes < minimum %llu",
                         bytes.size(),
                         static_cast<unsigned long long>(min_bytes));
  }
  if (!image.starts_with(kPackMagic)) {
    return InvalidArgumentError("not an ndvpack file (bad magic)");
  }

  // Header checksum covers the 48 field bytes; a flipped bit anywhere in
  // the header (including in the stored checksum) is caught here, before
  // any field is trusted.
  uint64_t stored_header_sum;
  std::memcpy(&stored_header_sum, bytes.data() + kPackV2HeaderBytes - 8, 8);
  const uint64_t actual_header_sum =
      Crc64Nvme(image.substr(0, kPackV2HeaderBytes - 8));
  if (stored_header_sum != actual_header_sum) {
    return DataLossError(
        "header checksum mismatch: stored %016llx, computed %016llx",
        static_cast<unsigned long long>(stored_header_sum),
        static_cast<unsigned long long>(actual_header_sum));
  }

  // The header holds no strings, hence the zero string cap.
  ByteReader header(image.substr(kPackMagic.size()), 0);
  uint32_t version = 0, column_count = 0;
  uint64_t row_count = 0, block_rows_u64 = 0, directory_offset = 0,
           directory_length = 0;
  // The cursor-advancing reads live outside the macro: a contract
  // condition must be effect-free (ndv-check-macro-side-effects).
  const bool header_complete =
      header.TakeU32(&version).ok() && header.TakeU32(&column_count).ok() &&
      header.TakeU64(&row_count).ok() &&
      header.TakeU64(&block_rows_u64).ok() &&
      header.TakeU64(&directory_offset).ok() &&
      header.TakeU64(&directory_length).ok();
  NDV_CHECK(header_complete);
  if (version != kPackVersion) {
    return InvalidArgumentError("unsupported pack version %u (have %u)",
                                version, kPackVersion);
  }
  if (block_rows_u64 < 1 ||
      block_rows_u64 > static_cast<uint64_t>(kMaxPackBlockRows)) {
    return DataLossError("block_rows %llu outside [1, %lld]",
                         static_cast<unsigned long long>(block_rows_u64),
                         static_cast<long long>(kMaxPackBlockRows));
  }
  if (row_count >
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return DataLossError("row_count %llu exceeds int64",
                         static_cast<unsigned long long>(row_count));
  }
  const auto block_rows = static_cast<int64_t>(block_rows_u64);

  // Trailer checksum covers every byte between header and trailer, so any
  // flip in payload or directory is caught before parsing the directory.
  const uint64_t payload_end = bytes.size() - kPackV2TrailerBytes;
  uint64_t stored_trailer_sum;
  std::memcpy(&stored_trailer_sum, bytes.data() + payload_end, 8);
  const uint64_t actual_trailer_sum = Crc64Nvme(
      image.substr(kPackV2HeaderBytes, payload_end - kPackV2HeaderBytes));
  if (stored_trailer_sum != actual_trailer_sum) {
    return DataLossError(
        "trailer checksum mismatch: stored %016llx, computed %016llx",
        static_cast<unsigned long long>(stored_trailer_sum),
        static_cast<unsigned long long>(actual_trailer_sum));
  }

  if (directory_offset < kPackV2HeaderBytes ||
      directory_offset > payload_end ||
      directory_length > payload_end - directory_offset) {
    return DataLossError(
        "directory [%llu, +%llu) outside payload [%llu, %llu)",
        static_cast<unsigned long long>(directory_offset),
        static_cast<unsigned long long>(directory_length),
        static_cast<unsigned long long>(kPackV2HeaderBytes),
        static_cast<unsigned long long>(payload_end));
  }

  // Every column has the same block partition: ceil(row_count /
  // block_rows) blocks of block_rows rows, short last block.
  const uint64_t expected_blocks =
      row_count == 0 ? 0 : (row_count + block_rows_u64 - 1) / block_rows_u64;

  PackV2Info info;
  info.row_count = row_count;
  info.block_rows = block_rows;
  info.file_bytes = bytes.size();
  info.columns.reserve(std::min<uint64_t>(column_count, 1024));

  // The cursor's own errors are replaced by messages that name the column
  // or block being parsed.
  ByteReader dir(image.substr(directory_offset, directory_length),
                 directory_length);
  for (uint32_t c = 0; c < column_count; ++c) {
    PackV2ColumnInfo column;
    uint32_t name_length = 0, type = 0;
    if (!dir.TakeU32(&name_length).ok() ||
        !dir.TakeView(name_length, &column.name).ok() ||
        !dir.TakeU32(&type).ok()) {
      return DataLossError("directory truncated in column %u of %u", c,
                           column_count);
    }
    bool is_string = false;
    switch (type) {
      case kTypeInt64:
        column.type = ColumnType::kInt64;
        break;
      case kTypeDouble:
        column.type = ColumnType::kDouble;
        break;
      case kTypeString:
        column.type = ColumnType::kString;
        is_string = true;
        break;
      default:
        return DataLossError("column %u of %u has unknown type %u", c,
                             column_count, type);
    }

    if (is_string) {
      if (!dir.TakeU64(&column.dict_count).ok() ||
          !dir.TakeU64(&column.dict_offsets_offset).ok() ||
          !dir.TakeU64(&column.dict_blob_offset).ok() ||
          !dir.TakeU64(&column.dict_blob_length).ok()) {
        return DataLossError("directory truncated in column %u of %u", c,
                             column_count);
      }
      if (column.dict_count >
          static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
        return DataLossError(
            "dictionary of %llu entries exceeds int32 code space",
            static_cast<unsigned long long>(column.dict_count));
      }
      // (dict_count + 1) u64 offsets, 8-aligned; blob is unaligned bytes.
      if ((column.dict_count + 1) >
          (payload_end - kPackV2HeaderBytes) / sizeof(uint64_t)) {
        return DataLossError("dict offsets of '%.*s' overrun the payload",
                             static_cast<int>(column.name.size()),
                             column.name.data());
      }
      NDV_RETURN_IF_ERROR(CheckRegion(
          column.dict_offsets_offset,
          (column.dict_count + 1) * sizeof(uint64_t), 8, payload_end,
          "dict offsets"));
      NDV_RETURN_IF_ERROR(CheckRegion(column.dict_blob_offset,
                                      column.dict_blob_length, 1,
                                      payload_end, "dict blob"));
      const auto* offsets = reinterpret_cast<const uint64_t*>(
          bytes.data() + column.dict_offsets_offset);
      if (offsets[0] != 0 ||
          offsets[column.dict_count] != column.dict_blob_length) {
        return DataLossError("dict offsets of '%.*s' do not span the blob",
                             static_cast<int>(column.name.size()),
                             column.name.data());
      }
      for (uint64_t i = 0; i < column.dict_count; ++i) {
        if (offsets[i] > offsets[i + 1]) {
          return DataLossError(
              "dict offsets of '%.*s' decrease at entry %llu",
              static_cast<int>(column.name.size()), column.name.data(),
              static_cast<unsigned long long>(i));
        }
      }
      column.packed_bytes +=
          (column.dict_count + 1) * sizeof(uint64_t) + column.dict_blob_length;
      column.raw_bytes +=
          (column.dict_count + 1) * sizeof(uint64_t) + column.dict_blob_length;
    }

    uint32_t block_count = 0;
    if (!dir.TakeU32(&block_count).ok()) {
      return DataLossError("directory truncated in column %u of %u", c,
                           column_count);
    }
    if (block_count != expected_blocks) {
      return DataLossError(
          "column '%.*s' has %u blocks; %llu rows at %lld rows/block "
          "require %llu",
          static_cast<int>(column.name.size()), column.name.data(),
          block_count, static_cast<unsigned long long>(row_count),
          static_cast<long long>(block_rows),
          static_cast<unsigned long long>(expected_blocks));
    }
    column.blocks.reserve(block_count);
    uint64_t rows_seen = 0;
    for (uint32_t b = 0; b < block_count; ++b) {
      uint8_t codec_byte = 0, param = 0;
      uint16_t reserved = 0;
      uint32_t rows_u32 = 0;
      uint64_t offset = 0, length = 0;
      if (!dir.TakeU8(&codec_byte).ok() || !dir.TakeU8(&param).ok() ||
          !dir.TakeU16(&reserved).ok() || !dir.TakeU32(&rows_u32).ok() ||
          !dir.TakeU64(&offset).ok() || !dir.TakeU64(&length).ok()) {
        return DataLossError("directory truncated in block %u of column "
                             "'%.*s'",
                             b, static_cast<int>(column.name.size()),
                             column.name.data());
      }
      if (codec_byte > static_cast<uint8_t>(PackBlockCodec::kDictCodes)) {
        return DataLossError("block %u of '%.*s' has unknown codec %u", b,
                             static_cast<int>(column.name.size()),
                             column.name.data(), codec_byte);
      }
      if (reserved != 0) {
        return DataLossError("block %u of '%.*s' has nonzero reserved field",
                             b, static_cast<int>(column.name.size()),
                             column.name.data());
      }
      // Every block except the last holds exactly block_rows rows.
      const uint64_t expected_rows =
          (b + 1 < block_count || row_count % block_rows_u64 == 0)
              ? block_rows_u64
              : row_count % block_rows_u64;
      if (rows_u32 != expected_rows) {
        return DataLossError(
            "block %u of '%.*s' claims %u rows; the partition requires %llu",
            b, static_cast<int>(column.name.size()), column.name.data(),
            rows_u32, static_cast<unsigned long long>(expected_rows));
      }
      const auto codec = static_cast<PackBlockCodec>(codec_byte);
      const auto rows = static_cast<int64_t>(rows_u32);
      // Raw value payloads alias int64/double arrays (8-aligned); raw code
      // payloads alias int32 arrays (4-aligned). Decoded codecs only need
      // byte access.
      const uint64_t alignment =
          codec == PackBlockCodec::kRaw ? (is_string ? 4 : 8) : 1;
      NDV_RETURN_IF_ERROR(
          CheckRegion(offset, length, alignment, payload_end, "block"));
      if (is_string) {
        NDV_RETURN_IF_ERROR(ValidateCodesBlock(
            codec, param, rows, bytes.subspan(offset, length),
            column.dict_count));
      } else {
        NDV_RETURN_IF_ERROR(ValidateValueBlock(
            codec, param, column.type == ColumnType::kDouble, rows, length));
      }
      column.blocks.push_back({codec, param, rows, offset, length});
      column.packed_bytes += length;
      column.raw_bytes +=
          static_cast<uint64_t>(rows) * (is_string ? 4 : 8);
      rows_seen += rows_u32;
    }
    NDV_CHECK_EQ(rows_seen, row_count);  // Implied by per-block checks.
    info.columns.push_back(std::move(column));
  }

  if (dir.remaining() != 0) {
    return DataLossError("%zu trailing bytes after the last directory entry",
                         dir.remaining());
  }
  return info;
}

}  // namespace

StatusOr<PackV2Info> InspectPackV2(std::span<const uint8_t> bytes) {
  return ParsePackV2(bytes);
}

StatusOr<Table> OpenPackV2FromBytes(std::span<const uint8_t> bytes,
                                    std::shared_ptr<const void> owner) {
  auto info = ParsePackV2(bytes);
  if (!info.ok()) return info.status();

  Table table;
  const auto rows = static_cast<int64_t>(info->row_count);
  for (const PackV2ColumnInfo& column : info->columns) {
    std::vector<PackBlockRef> blocks;
    blocks.reserve(column.blocks.size());
    for (const PackV2BlockInfo& block : column.blocks) {
      blocks.push_back({block.codec, block.param, block.rows,
                        bytes.data() + block.offset, block.length});
    }
    std::unique_ptr<Column> built;
    switch (column.type) {
      case ColumnType::kInt64:
        built = std::make_unique<BlockedInt64Column>(
            rows, info->block_rows, std::move(blocks), owner);
        break;
      case ColumnType::kDouble:
        built = std::make_unique<BlockedDoubleColumn>(
            rows, info->block_rows, std::move(blocks), owner);
        break;
      case ColumnType::kString: {
        const std::span<const uint64_t> dict_offsets = {
            reinterpret_cast<const uint64_t*>(bytes.data() +
                                              column.dict_offsets_offset),
            static_cast<size_t>(column.dict_count) + 1};
        const auto* blob = reinterpret_cast<const char*>(
            bytes.data() + column.dict_blob_offset);
        built = std::make_unique<BlockedStringColumn>(
            rows, info->block_rows, std::move(blocks), dict_offsets, blob,
            owner);
        break;
      }
    }
    NDV_CHECK(built != nullptr);
    table.AddColumn(std::string(column.name), std::move(built));
  }
  return table;
}

}  // namespace ndv
