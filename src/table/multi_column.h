#ifndef NDV_TABLE_MULTI_COLUMN_H_
#define NDV_TABLE_MULTI_COLUMN_H_

#include <cstdint>
#include <vector>

#include "table/column.h"
#include "table/table.h"

namespace ndv {

// A virtual column over the tuple of several columns: row k's "value" is
// the combination (col_1[k], ..., col_m[k]). Distinct counting over it
// estimates the number of distinct GROUP BY combinations — the
// multi-attribute cardinality a query optimizer needs for
// GROUP BY a, b, c or multi-column join keys.
//
// The view borrows the underlying columns; they must outlive it.
class CombinedColumn final : public Column {
 public:
  // Requires a non-empty set of equally-sized columns.
  explicit CombinedColumn(std::vector<const Column*> columns);

  // Convenience: combine table columns selected by index.
  CombinedColumn(const Table& table, std::vector<int64_t> column_indexes);

  ColumnType type() const override { return ColumnType::kInt64; }
  int64_t size() const override { return rows_; }
  uint64_t HashAt(int64_t row) const override;
  void HashRange(std::span<const int64_t> rows, uint64_t* out) const override;
  void HashSlice(int64_t begin, int64_t end, uint64_t* out) const override;
  std::string ValueToString(int64_t row) const override;
  // Full-scan advice fans out to every component column.
  void PrepareFullScan() const override {
    for (const Column* column : columns_) column->PrepareFullScan();
  }

  int64_t NumComponents() const {
    return static_cast<int64_t>(columns_.size());
  }

 private:
  std::vector<const Column*> columns_;
  int64_t rows_ = 0;
};

}  // namespace ndv

#endif  // NDV_TABLE_MULTI_COLUMN_H_
