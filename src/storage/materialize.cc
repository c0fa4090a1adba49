#include "storage/materialize.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "storage/blocked_column.h"

namespace ndv {
namespace {

// Appends rows [begin, end) of `column` as typed int64 values. An empty
// range appends nothing from a column of any type.
Status AppendInt64(const Column& column, int64_t begin, int64_t end,
                   std::vector<int64_t>* out) {
  if (begin == end) return Status::Ok();
  if (const auto* heap = dynamic_cast<const Int64Column*>(&column)) {
    out->insert(out->end(), heap->values().begin() + begin,
                heap->values().begin() + end);
    return Status::Ok();
  }
  if (const auto* blocked =
          dynamic_cast<const BlockedInt64Column*>(&column)) {
    const size_t offset = out->size();
    out->resize(offset + static_cast<size_t>(end - begin));
    blocked->CopyValues(begin, end, out->data() + offset);
    return Status::Ok();
  }
  return InternalError("unsupported int64 column class");
}

Status AppendDouble(const Column& column, int64_t begin, int64_t end,
                    std::vector<double>* out) {
  if (begin == end) return Status::Ok();
  if (const auto* heap = dynamic_cast<const DoubleColumn*>(&column)) {
    out->insert(out->end(), heap->values().begin() + begin,
                heap->values().begin() + end);
    return Status::Ok();
  }
  if (const auto* blocked =
          dynamic_cast<const BlockedDoubleColumn*>(&column)) {
    const size_t offset = out->size();
    out->resize(offset + static_cast<size_t>(end - begin));
    blocked->CopyValues(begin, end, out->data() + offset);
    return Status::Ok();
  }
  return InternalError("unsupported double column class");
}

// Strings go through ValueToString: every string column class renders the
// dictionary entry verbatim, so the round-trip is lossless (unlike the
// numeric types, where the debug rendering would truncate doubles).
void AppendStrings(const Column& column, int64_t begin, int64_t end,
                   std::vector<std::string>* out) {
  out->reserve(out->size() + static_cast<size_t>(end - begin));
  for (int64_t row = begin; row < end; ++row) {
    out->push_back(column.ValueToString(row));
  }
}

StatusOr<std::unique_ptr<Column>> MaterializeRange(const Column& column,
                                                   int64_t begin,
                                                   int64_t end) {
  switch (column.type()) {
    case ColumnType::kInt64: {
      std::vector<int64_t> values;
      values.reserve(static_cast<size_t>(end - begin));
      NDV_RETURN_IF_ERROR(AppendInt64(column, begin, end, &values));
      return std::unique_ptr<Column>(
          std::make_unique<Int64Column>(std::move(values)));
    }
    case ColumnType::kDouble: {
      std::vector<double> values;
      values.reserve(static_cast<size_t>(end - begin));
      NDV_RETURN_IF_ERROR(AppendDouble(column, begin, end, &values));
      return std::unique_ptr<Column>(
          std::make_unique<DoubleColumn>(std::move(values)));
    }
    case ColumnType::kString: {
      std::vector<std::string> values;
      AppendStrings(column, begin, end, &values);
      return std::unique_ptr<Column>(
          std::make_unique<StringColumn>(values));
    }
  }
  return InternalError("unsupported column type");
}

}  // namespace

StatusOr<std::unique_ptr<Column>> MaterializeColumnSlice(
    const Column& column, int64_t begin, int64_t end) {
  if (begin < 0 || begin > end || end > column.size()) {
    return InvalidArgumentError(
        "slice [%lld, %lld) out of bounds for a %lld-row column",
        static_cast<long long>(begin), static_cast<long long>(end),
        static_cast<long long>(column.size()));
  }
  return MaterializeRange(column, begin, end);
}

StatusOr<Table> ConcatTables(const Table& base, const Table& appended) {
  if (base.NumColumns() != appended.NumColumns()) {
    return InvalidArgumentError(
        "schema mismatch: %lld vs %lld columns",
        static_cast<long long>(base.NumColumns()),
        static_cast<long long>(appended.NumColumns()));
  }
  Table result;
  for (int64_t c = 0; c < base.NumColumns(); ++c) {
    const Column& head = base.column(c);
    const Column& tail = appended.column(c);
    if (base.column_name(c) != appended.column_name(c)) {
      return InvalidArgumentError(
          "schema mismatch at column %lld: '%s' vs '%s'",
          static_cast<long long>(c), base.column_name(c).c_str(),
          appended.column_name(c).c_str());
    }
    // A zero-row column holds no value to conflict with, so it takes the
    // other side's type: a header-only CSV types its columns as strings.
    if (head.size() > 0 && tail.size() > 0 && head.type() != tail.type()) {
      return InvalidArgumentError(
          "schema mismatch at column '%s': %s vs %s",
          base.column_name(c).c_str(),
          std::string(ColumnTypeName(head.type())).c_str(),
          std::string(ColumnTypeName(tail.type())).c_str());
    }
    switch (head.size() > 0 ? head.type() : tail.type()) {
      case ColumnType::kInt64: {
        std::vector<int64_t> values;
        values.reserve(static_cast<size_t>(head.size() + tail.size()));
        NDV_RETURN_IF_ERROR(AppendInt64(head, 0, head.size(), &values));
        NDV_RETURN_IF_ERROR(AppendInt64(tail, 0, tail.size(), &values));
        result.AddColumn(base.column_name(c),
                         std::make_unique<Int64Column>(std::move(values)));
        break;
      }
      case ColumnType::kDouble: {
        std::vector<double> values;
        values.reserve(static_cast<size_t>(head.size() + tail.size()));
        NDV_RETURN_IF_ERROR(AppendDouble(head, 0, head.size(), &values));
        NDV_RETURN_IF_ERROR(AppendDouble(tail, 0, tail.size(), &values));
        result.AddColumn(base.column_name(c),
                         std::make_unique<DoubleColumn>(std::move(values)));
        break;
      }
      case ColumnType::kString: {
        std::vector<std::string> values;
        AppendStrings(head, 0, head.size(), &values);
        AppendStrings(tail, 0, tail.size(), &values);
        result.AddColumn(base.column_name(c),
                         std::make_unique<StringColumn>(values));
        break;
      }
    }
  }
  return result;
}

}  // namespace ndv
