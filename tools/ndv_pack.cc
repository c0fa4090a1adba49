// ndv_pack — standalone table converter for the ndvpack binary columnar
// format. Packs once, scans forever: a packed table opens by mmap with no
// parse step, so every later ANALYZE pays ingestion cost proportional to
// the rows it actually touches, not to the text it would have re-parsed.
//
//   ndv_pack [--codec=auto|raw|delta|dict] <input> <output.ndvpack>
//       convert CSV (or repack) to ndvpack v4 with the given block codec
//       policy (default auto)
//   ndv_pack --verify <file.ndvpack>
//       validate header, both CRC-64/NVME checksums and every column and
//       print each column's block codecs, packed vs raw bytes, and the
//       whole-file ratio
//
// The input format is auto-detected by content; packing an .ndvpack input
// rewrites it canonically (useful after hand edits or a codec change).
// Packs of another version (v1, v2 and v3 are legacy) are rejected with
// "ndvpack v<d> is unsupported; repack the source data as v4".

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "storage/mapped_file.h"
#include "storage/pack_reader.h"
#include "storage/pack_writer.h"
#include "storage/table_loader.h"
#include "table/table.h"

namespace {

// Histogram of codecs over one column's blocks, e.g. "raw" or
// "delta:412 raw:12".
std::string CodecSummary(const ndv::PackV2ColumnInfo& column) {
  int64_t counts[3] = {0, 0, 0};
  for (const ndv::PackV2BlockInfo& block : column.blocks) {
    ++counts[static_cast<size_t>(block.codec)];
  }
  std::string out;
  for (const auto codec :
       {ndv::PackBlockCodec::kRaw, ndv::PackBlockCodec::kDelta,
        ndv::PackBlockCodec::kDictCodes}) {
    const int64_t n = counts[static_cast<size_t>(codec)];
    if (n == 0) continue;
    if (!out.empty()) out += ' ';
    out += ndv::PackBlockCodecName(codec);
    if (column.blocks.size() > 1) {
      out += ':';
      out += std::to_string(n);
    }
  }
  return out.empty() ? "none" : out;
}

int Verify(const std::string& path) {
  auto file = ndv::MappedFile::Open(path);
  if (!file.ok()) {
    std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                 file.status().ToString().c_str());
    return 1;
  }
  auto info = ndv::InspectPackV2((*file)->bytes());
  if (!info.ok()) {
    std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf("OK %s: v%u, %llu rows x %zu columns, %lld rows/block\n",
              path.c_str(), ndv::kPackVersion,
              static_cast<unsigned long long>(info->row_count),
              info->columns.size(),
              static_cast<long long>(info->block_rows));
  uint64_t packed_total = 0;
  uint64_t raw_total = 0;
  for (const ndv::PackV2ColumnInfo& column : info->columns) {
    packed_total += column.packed_bytes;
    raw_total += column.raw_bytes;
    const double ratio =
        column.raw_bytes == 0
            ? 1.0
            : static_cast<double>(column.packed_bytes) /
                  static_cast<double>(column.raw_bytes);
    std::printf("  '%.*s' %s codec=%s packed=%llu raw=%llu (%.3fx)\n",
                static_cast<int>(column.name.size()), column.name.data(),
                std::string(ndv::ColumnTypeName(column.type)).c_str(),
                CodecSummary(column).c_str(),
                static_cast<unsigned long long>(column.packed_bytes),
                static_cast<unsigned long long>(column.raw_bytes), ratio);
  }
  const double file_ratio =
      raw_total == 0 ? 1.0
                     : static_cast<double>(packed_total) /
                           static_cast<double>(raw_total);
  std::printf("  file %llu bytes, payload %llu of raw %llu (%.3fx)\n",
              static_cast<unsigned long long>(info->file_bytes),
              static_cast<unsigned long long>(packed_total),
              static_cast<unsigned long long>(raw_total), file_ratio);
  return 0;
}

int Convert(const std::string& in_path, const std::string& out_path,
            ndv::PackCodecChoice codec) {
  auto table = ndv::LoadTableAuto(in_path);
  if (!table.ok()) {
    std::fprintf(stderr, "error: %s\n", table.status().ToString().c_str());
    return 1;
  }
  ndv::PackWriteOptions options;
  options.codec = codec;
  const ndv::Status written = ndv::WritePackFileV2(*table, out_path, options);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("packed %lld rows x %lld columns: %s -> %s\n",
              static_cast<long long>(table->NumRows()),
              static_cast<long long>(table->NumColumns()), in_path.c_str(),
              out_path.c_str());
  return Verify(out_path);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: ndv_pack [--codec=auto|raw|delta|dict] <input> "
      "<output.ndvpack>\n"
      "       ndv_pack --verify <file.ndvpack>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ndv::PackCodecChoice codec = ndv::PackCodecChoice::kAutoCodec;
  int arg = 1;
  while (arg < argc && std::strncmp(argv[arg], "--", 2) == 0) {
    if (std::strcmp(argv[arg], "--verify") == 0) {
      if (argc - arg != 2) return Usage();
      return Verify(argv[arg + 1]);
    }
    if (std::strncmp(argv[arg], "--codec=", 8) == 0) {
      if (!ndv::ParsePackCodecChoice(argv[arg] + 8, &codec)) {
        std::fprintf(stderr, "error: unknown codec '%s'\n", argv[arg] + 8);
        return Usage();
      }
      ++arg;
      continue;
    }
    return Usage();
  }
  if (argc - arg != 2) return Usage();
  return Convert(argv[arg], argv[arg + 1], codec);
}
