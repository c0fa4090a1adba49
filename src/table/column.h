#ifndef NDV_TABLE_COLUMN_H_
#define NDV_TABLE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/value_hash.h"

namespace ndv {

enum class ColumnType {
  kInt64,
  kDouble,
  kString,
};

std::string_view ColumnTypeName(ColumnType type);

// A read-only typed column. Estimators never look at raw values — only at
// equality classes — so the one operation every column must provide is a
// 64-bit hash of each row's value, with equal values hashing equally.
class Column {
 public:
  virtual ~Column() = default;

  virtual ColumnType type() const = 0;
  virtual int64_t size() const = 0;

  // 64-bit hash of the value at `row`; equal values produce equal hashes.
  // Requires 0 <= row < size().
  virtual uint64_t HashAt(int64_t row) const = 0;

  // Batch hashing — semantically identical to calling HashAt per row, but
  // one virtual call per batch instead of one per row, with a tight
  // per-type inner loop underneath. Every bulk consumer (profiles, exact
  // NDV, aggregation, sketches) should go through these.
  //
  // Gather: out[i] = HashAt(rows[i]). Requires each row in [0, size()).
  virtual void HashRange(std::span<const int64_t> rows, uint64_t* out) const;
  // Contiguous: out[i] = HashAt(begin + i) for i in [0, end - begin).
  // Requires 0 <= begin <= end <= size().
  virtual void HashSlice(int64_t begin, int64_t end, uint64_t* out) const;
  // Convenience: hashes of all rows, in row order. Announces the scan via
  // PrepareFullScan() before hashing.
  std::vector<uint64_t> HashAll() const;

  // Storage-advice hook; a no-op for heap columns. File-backed columns
  // translate it into madvise: the caller is about to read every row in
  // order (MADV_SEQUENTIAL — readahead up, no page retention). Purely a
  // hint: never affects results.
  virtual void PrepareFullScan() const {}

  // Debug rendering of the value at `row`.
  virtual std::string ValueToString(int64_t row) const = 0;
};

// Column of 64-bit integers.
class Int64Column final : public Column {
 public:
  explicit Int64Column(std::vector<int64_t> values)
      : values_(std::move(values)) {}

  ColumnType type() const override { return ColumnType::kInt64; }
  int64_t size() const override {
    return static_cast<int64_t>(values_.size());
  }
  uint64_t HashAt(int64_t row) const override {
    NDV_DCHECK(0 <= row && row < size());
    return Hash64(static_cast<uint64_t>(values_[static_cast<size_t>(row)]));
  }
  void HashRange(std::span<const int64_t> rows, uint64_t* out) const override;
  void HashSlice(int64_t begin, int64_t end, uint64_t* out) const override;
  std::string ValueToString(int64_t row) const override {
    return std::to_string(values_[static_cast<size_t>(row)]);
  }

  const std::vector<int64_t>& values() const { return values_; }

 private:
  std::vector<int64_t> values_;
};

// Column of doubles. -0.0 is canonicalized to +0.0 so the two compare (and
// hash) as equal; NaNs all hash to one class.
class DoubleColumn final : public Column {
 public:
  explicit DoubleColumn(std::vector<double> values)
      : values_(std::move(values)) {}

  ColumnType type() const override { return ColumnType::kDouble; }
  int64_t size() const override {
    return static_cast<int64_t>(values_.size());
  }
  uint64_t HashAt(int64_t row) const override;
  void HashRange(std::span<const int64_t> rows, uint64_t* out) const override;
  void HashSlice(int64_t begin, int64_t end, uint64_t* out) const override;
  std::string ValueToString(int64_t row) const override {
    return std::to_string(values_[static_cast<size_t>(row)]);
  }

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

// Dictionary-encoded string column: the distinct strings live once in the
// dictionary, rows store 32-bit codes. This mirrors how real column stores
// hold low-cardinality string data.
class StringColumn final : public Column {
 public:
  // Builds the dictionary from raw values.
  explicit StringColumn(const std::vector<std::string>& values);

  // Adopts a pre-built dictionary + codes. Codes must index `dictionary`.
  StringColumn(std::vector<std::string> dictionary,
               std::vector<int32_t> codes);

  ColumnType type() const override { return ColumnType::kString; }
  int64_t size() const override { return static_cast<int64_t>(codes_.size()); }
  uint64_t HashAt(int64_t row) const override {
    NDV_DCHECK(0 <= row && row < size());
    return hashes_[static_cast<size_t>(codes_[static_cast<size_t>(row)])];
  }
  void HashRange(std::span<const int64_t> rows, uint64_t* out) const override;
  void HashSlice(int64_t begin, int64_t end, uint64_t* out) const override;
  std::string ValueToString(int64_t row) const override {
    return dictionary_[static_cast<size_t>(codes_[static_cast<size_t>(row)])];
  }

  int64_t dictionary_size() const {
    return static_cast<int64_t>(dictionary_.size());
  }
  const std::vector<std::string>& dictionary() const { return dictionary_; }
  const std::vector<int32_t>& codes() const { return codes_; }

 private:
  void ComputeHashes();

  std::vector<std::string> dictionary_;
  std::vector<int32_t> codes_;
  std::vector<uint64_t> hashes_;  // one per dictionary entry
};

// HashBytes, HashDoubleValue and the batch loops built on them — the
// value hashes every column class uses — live in common/value_hash.h
// (pulled in above).

}  // namespace ndv

#endif  // NDV_TABLE_COLUMN_H_
