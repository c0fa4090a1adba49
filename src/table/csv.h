#ifndef NDV_TABLE_CSV_H_
#define NDV_TABLE_CSV_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace ndv {

// Minimal RFC-4180-style CSV interchange for tables. Supports quoted fields
// (with doubled-quote escapes) and embedded commas/newlines in quotes. All
// columns round-trip through strings; typed parsing is the caller's concern
// except for the convenience readers below.
//
// On malformed input the readers return an InvalidArgument status naming
// the line (1-based, counted outside quotes) and the reason — "unterminated
// quote opened at line 12", "ragged row at line 3: expected 4 fields, got
// 3".

// Serializes `table` (with a header row of column names) to `out`.
void WriteCsv(const Table& table, std::ostream& out);

// Parses one CSV document into rows of string fields. An empty document
// yields zero rows.
StatusOr<std::vector<std::vector<std::string>>> ParseCsvOrStatus(
    std::string_view text);

// Reads a CSV document with a header row into a Table of StringColumns.
// Fails on malformed input, a missing header row, or ragged rows.
StatusOr<Table> ReadCsvAsStringsOrStatus(std::string_view text);

// Like ReadCsvAsStringsOrStatus, but with per-column type inference: a
// column whose every field parses as a 64-bit integer becomes an
// Int64Column, one whose every field parses as a double becomes a
// DoubleColumn, everything else stays a StringColumn. Empty fields block
// numeric inference (they would need a null story).
StatusOr<Table> ReadCsvInferredOrStatus(std::string_view text);

}  // namespace ndv

#endif  // NDV_TABLE_CSV_H_
