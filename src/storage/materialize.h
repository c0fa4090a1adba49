#ifndef NDV_STORAGE_MATERIALIZE_H_
#define NDV_STORAGE_MATERIALIZE_H_

#include <memory>

#include "common/status.h"
#include "table/column.h"
#include "table/table.h"

namespace ndv {

// Heap materialization across every storage class. The table layer only
// knows abstract columns (hashes + debug strings); recovering typed values
// requires the concrete column classes, which live here in storage — so
// this is where "turn any column back into a heap column" must live. Used
// by the append workflow: concatenating freshly generated rows onto an
// existing dataset (CSV or ndvpack) regardless of how the base is stored.

// Copies rows [begin, end) of `column` into a heap column of the same
// type (Int64Column / DoubleColumn / StringColumn). Strings round-trip
// through the dictionary, numerics through typed copies — lossless for
// every column class the readers produce. Requires 0 <= begin <= end <=
// column.size(). Returns Internal for an unknown column class.
StatusOr<std::unique_ptr<Column>> MaterializeColumnSlice(
    const Column& column, int64_t begin, int64_t end);

// A heap table holding base's rows followed by appended's rows, column by
// column. The schemas must match (same column count, names, and types, in
// order); mismatches return InvalidArgument naming the first offender. A
// zero-row column matches a column of any type and takes its type.
StatusOr<Table> ConcatTables(const Table& base, const Table& appended);

}  // namespace ndv

#endif  // NDV_STORAGE_MATERIALIZE_H_
