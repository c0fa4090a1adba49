// Fuzzes StatsCatalog::DeserializeOrStatus over both wire formats (v1 and
// v2). Properties beyond "no crash":
//   - untrusted input NEVER aborts: malformed text yields a Status, and the
//     returned message is non-empty;
//   - accepted input is canonicalizing: Serialize(parse(text)) re-parses,
//     and a second Serialize reproduces the first byte-for-byte (the
//     serialized form is a fixed point);
//   - lookups over an accepted catalog are total (Find on every entry).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "catalog/stats_catalog.h"
#include "common/check.h"

namespace {

constexpr size_t kMaxInputBytes = 1 << 16;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) return 0;
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  const auto catalog = ndv::StatsCatalog::DeserializeOrStatus(text);
  if (!catalog.ok()) {
    NDV_CHECK(!catalog.status().message().empty());
    return 0;
  }

  for (const ndv::ColumnStats& stats : catalog->entries()) {
    const std::optional<ndv::ColumnStats> found =
        catalog->Find(stats.column_name);
    NDV_CHECK(found.has_value());
    NDV_CHECK(found->table_rows == stats.table_rows);
    // Selectivity must be computable for every accepted entry.
    const double selectivity = found->EstimatedSelectivity();
    NDV_CHECK(selectivity == selectivity || stats.estimate != stats.estimate);
  }

  const std::string first = catalog->Serialize();
  const auto reparsed = ndv::StatsCatalog::DeserializeOrStatus(first);
  NDV_CHECK_MSG(reparsed.ok(), "re-parse of Serialize() failed: %s",
                reparsed.status().ToString().c_str());
  NDV_CHECK_EQ(reparsed->entries().size(), catalog->entries().size());
  const std::string second = reparsed->Serialize();
  NDV_CHECK(second == first);
  return 0;
}
