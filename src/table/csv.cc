#include "table/csv.h"

#include <charconv>
#include <ostream>

namespace ndv {
namespace {

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

void WriteField(std::string_view field, std::ostream& out) {
  if (!NeedsQuoting(field)) {
    out << field;
    return;
  }
  out << '"';
  for (char c : field) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

struct ParsedCsv {
  std::vector<std::vector<std::string>> rows;
  // 1-based physical line (newlines inside quotes count) where each row
  // starts; parallel to `rows`. Lets readers report ragged rows by the line
  // a user would jump to, not a row index skewed by embedded newlines.
  std::vector<int64_t> row_lines;
};

Status ParseCsvInto(std::string_view text, ParsedCsv* out) {
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // true once any char (or quote) seen in field
  int64_t line = 1;            // current physical line
  int64_t row_line = 1;        // line the current row started on
  int64_t quote_line = 0;      // line the open quote started on
  size_t i = 0;
  const size_t n = text.size();
  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    out->rows.push_back(std::move(row));
    out->row_lines.push_back(row_line);
    row.clear();
  };
  while (i < n) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field += '"';
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        if (c == '\n') ++line;
        field += c;
        ++i;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        quote_line = line;
        ++i;
        break;
      case ',':
        end_field();
        ++i;
        break;
      case '\r':
        ++i;  // Tolerate CRLF.
        break;
      case '\n':
        end_row();
        ++line;
        row_line = line;
        ++i;
        break;
      default:
        field += c;
        field_started = true;
        ++i;
        break;
    }
  }
  if (in_quotes) {
    return InvalidArgumentError(
        "unterminated quote opened at line %lld",
        static_cast<long long>(quote_line));
  }
  if (!field.empty() || field_started || !row.empty()) end_row();
  return Status::Ok();
}

Status CheckRowWidth(const ParsedCsv& parsed, size_t r, size_t num_cols) {
  if (parsed.rows[r].size() == num_cols) return Status::Ok();
  return InvalidArgumentError(
      "ragged row at line %lld: expected %zu fields, got %zu",
      static_cast<long long>(parsed.row_lines[r]), num_cols,
      parsed.rows[r].size());
}

}  // namespace

void WriteCsv(const Table& table, std::ostream& out) {
  for (int64_t c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) out << ',';
    WriteField(table.column_name(c), out);
  }
  out << '\n';
  for (int64_t row = 0; row < table.NumRows(); ++row) {
    for (int64_t c = 0; c < table.NumColumns(); ++c) {
      if (c > 0) out << ',';
      WriteField(table.column(c).ValueToString(row), out);
    }
    out << '\n';
  }
}

StatusOr<std::vector<std::vector<std::string>>> ParseCsvOrStatus(
    std::string_view text) {
  ParsedCsv parsed;
  NDV_RETURN_IF_ERROR(ParseCsvInto(text, &parsed));
  return std::move(parsed.rows);
}

namespace {

bool ParseInt64(const std::string& field, int64_t* out) {
  if (field.empty()) return false;
  const char* begin = field.data();
  const char* end = field.data() + field.size();
  const auto result = std::from_chars(begin, end, *out);
  return result.ec == std::errc() && result.ptr == end;
}

bool ParseDouble(const std::string& field, double* out) {
  if (field.empty()) return false;
  const char* begin = field.data();
  const char* end = field.data() + field.size();
  const auto result = std::from_chars(begin, end, *out);
  return result.ec == std::errc() && result.ptr == end;
}

}  // namespace

StatusOr<Table> ReadCsvInferredOrStatus(std::string_view text) {
  ParsedCsv parsed;
  NDV_RETURN_IF_ERROR(ParseCsvInto(text, &parsed));
  if (parsed.rows.empty()) {
    return InvalidArgumentError("empty CSV document: missing header row");
  }
  const std::vector<std::string>& header = parsed.rows[0];
  const size_t num_cols = header.size();
  const size_t num_rows = parsed.rows.size() - 1;

  for (size_t r = 1; r < parsed.rows.size(); ++r) {
    NDV_RETURN_IF_ERROR(CheckRowWidth(parsed, r, num_cols));
  }

  Table table;
  for (size_t c = 0; c < num_cols; ++c) {
    // First pass: can every field be an int64? a double?
    bool all_int = num_rows > 0;
    bool all_double = num_rows > 0;
    for (size_t r = 1; r < parsed.rows.size(); ++r) {
      const std::string& field = parsed.rows[r][c];
      int64_t i;
      double d;
      if (all_int && !ParseInt64(field, &i)) all_int = false;
      if (all_double && !ParseDouble(field, &d)) all_double = false;
      if (!all_int && !all_double) break;
    }
    if (all_int) {
      std::vector<int64_t> values(num_rows);
      for (size_t r = 1; r < parsed.rows.size(); ++r) {
        ParseInt64(parsed.rows[r][c], &values[r - 1]);
      }
      table.AddColumn(header[c],
                      std::make_unique<Int64Column>(std::move(values)));
    } else if (all_double) {
      std::vector<double> values(num_rows);
      for (size_t r = 1; r < parsed.rows.size(); ++r) {
        ParseDouble(parsed.rows[r][c], &values[r - 1]);
      }
      table.AddColumn(header[c],
                      std::make_unique<DoubleColumn>(std::move(values)));
    } else {
      std::vector<std::string> values;
      values.reserve(num_rows);
      for (size_t r = 1; r < parsed.rows.size(); ++r) {
        values.push_back(parsed.rows[r][c]);
      }
      table.AddColumn(header[c], std::make_unique<StringColumn>(values));
    }
  }
  return table;
}

StatusOr<Table> ReadCsvAsStringsOrStatus(std::string_view text) {
  ParsedCsv parsed;
  NDV_RETURN_IF_ERROR(ParseCsvInto(text, &parsed));
  if (parsed.rows.empty()) {
    return InvalidArgumentError("empty CSV document: missing header row");
  }
  const std::vector<std::string>& header = parsed.rows[0];
  const size_t num_cols = header.size();
  std::vector<std::vector<std::string>> columns(num_cols);
  for (size_t r = 1; r < parsed.rows.size(); ++r) {
    NDV_RETURN_IF_ERROR(CheckRowWidth(parsed, r, num_cols));
    for (size_t c = 0; c < num_cols; ++c) {
      columns[c].push_back(std::move(parsed.rows[r][c]));
    }
  }
  Table table;
  for (size_t c = 0; c < num_cols; ++c) {
    table.AddColumn(header[c], std::make_unique<StringColumn>(columns[c]));
  }
  return table;
}

}  // namespace ndv
