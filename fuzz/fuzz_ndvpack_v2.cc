// Fuzzes the ndvpack v2 parser (InspectPackV2 / OpenPackV2FromBytes) over
// arbitrary bytes, per-block codecs and lazy decode included:
//   - untrusted input NEVER crashes or over-reads: malformed bytes yield a
//     Status with a non-empty message, from both the inspector and the
//     opener (they must agree on accept/reject);
//   - accepted input is fully walkable: hashing and stringifying every row
//     decodes every block — raw, delta, and dict codes — without touching
//     memory outside the buffer, and batch kernels match HashAt;
//   - accepted input round-trips: SerializePackV2 of the opened table
//     re-parses, preserves the row/column shape, and a second
//     serialization reproduces the first byte-for-byte.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "storage/pack_reader.h"
#include "storage/pack_writer.h"
#include "table/table.h"

namespace {

constexpr size_t kMaxInputBytes = 1 << 20;

// Walking an accepted pack must be bounded work; cap the per-input row
// cost so the fuzzer spends its budget on the parser and block decoders.
constexpr uint64_t kMaxWalkedRows = 1 << 14;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) return 0;

  // The parser aliases raw blocks in place and requires an 8-aligned base
  // (the mmap / malloc contract); fuzzer buffers only guarantee malloc
  // alignment for the allocation, not for `data`, so copy into words.
  auto aligned = std::make_shared<std::vector<uint64_t>>((size + 7) / 8);
  if (size > 0) std::memcpy(aligned->data(), data, size);
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(aligned->data()), size);

  const auto info = ndv::InspectPackV2(bytes);
  auto opened = ndv::OpenPackV2FromBytes(bytes, aligned);
  NDV_CHECK_MSG(info.ok() == opened.ok(),
                "inspector and opener disagree: %s vs %s",
                info.ok() ? "ok" : info.status().ToString().c_str(),
                opened.ok() ? "ok" : opened.status().ToString().c_str());
  if (!info.ok()) {
    NDV_CHECK(!info.status().message().empty());
    NDV_CHECK(!opened.status().message().empty());
    return 0;
  }

  const ndv::Table& table = *opened;
  NDV_CHECK_EQ(static_cast<uint64_t>(table.NumRows()), info->row_count);
  NDV_CHECK_EQ(static_cast<uint64_t>(table.NumColumns()),
               info->columns.size());

  const int64_t rows_to_walk = static_cast<int64_t>(
      std::min<uint64_t>(info->row_count, kMaxWalkedRows));
  for (int64_t c = 0; c < table.NumColumns(); ++c) {
    const ndv::Column& column = table.column(c);
    for (int64_t row = 0; row < rows_to_walk; ++row) {
      (void)column.HashAt(row);
      (void)column.ValueToString(row);
    }
    // Batch kernels cross block boundaries and decode compressed blocks
    // through the thread-local cache; they must match the scalar path.
    if (rows_to_walk > 0) {
      std::vector<uint64_t> hashes(static_cast<size_t>(rows_to_walk));
      column.HashSlice(0, rows_to_walk, hashes.data());
      NDV_CHECK_EQ(hashes[0], column.HashAt(0));
      NDV_CHECK_EQ(hashes[static_cast<size_t>(rows_to_walk - 1)],
                   column.HashAt(rows_to_walk - 1));
    }
  }

  // Round trip: repacking the opened table (streaming every block through
  // the codec layer again) reproduces a parseable image, and serializing
  // twice is byte-stable.
  const std::string first = ndv::SerializePackV2(table);
  std::vector<uint64_t> realigned((first.size() + 7) / 8);
  std::memcpy(realigned.data(), first.data(), first.size());
  const auto reparsed = ndv::InspectPackV2(
      {reinterpret_cast<const uint8_t*>(realigned.data()), first.size()});
  NDV_CHECK_MSG(reparsed.ok(), "re-parse of SerializePackV2() failed: %s",
                reparsed.status().ToString().c_str());
  NDV_CHECK_EQ(reparsed->row_count, info->row_count);
  NDV_CHECK_EQ(reparsed->columns.size(), info->columns.size());
  const std::string second = ndv::SerializePackV2(table);
  NDV_CHECK(second == first);
  return 0;
}
