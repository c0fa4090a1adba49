#include "table/column.h"

#include <unordered_map>

#include "common/value_hash.h"

namespace ndv {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "int64";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kString:
      return "string";
  }
  return "unknown";
}

void Column::HashRange(std::span<const int64_t> rows, uint64_t* out) const {
  // Generic fallback for column types without a batched loop: still one
  // virtual call per row, but callers get the batch interface uniformly.
  for (size_t i = 0; i < rows.size(); ++i) out[i] = HashAt(rows[i]);
}

void Column::HashSlice(int64_t begin, int64_t end, uint64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= size());
  for (int64_t row = begin; row < end; ++row) out[row - begin] = HashAt(row);
}

std::vector<uint64_t> Column::HashAll() const {
  PrepareFullScan();
  std::vector<uint64_t> hashes(static_cast<size_t>(size()));
  HashSlice(0, size(), hashes.data());
  return hashes;
}

void Int64Column::HashRange(std::span<const int64_t> rows,
                            uint64_t* out) const {
#if NDV_DCHECK_ENABLED
  for (const int64_t row : rows) NDV_DCHECK(0 <= row && row < size());
#endif
  HashInt64Gather(values_.data(), rows.data(), rows.size(), out);
}

void Int64Column::HashSlice(int64_t begin, int64_t end, uint64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= size());
  HashInt64Span(values_.data() + begin, static_cast<size_t>(end - begin),
                out);
}

uint64_t DoubleColumn::HashAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < size());
  return HashDoubleValue(values_[static_cast<size_t>(row)]);
}

void DoubleColumn::HashRange(std::span<const int64_t> rows,
                             uint64_t* out) const {
#if NDV_DCHECK_ENABLED
  for (const int64_t row : rows) NDV_DCHECK(0 <= row && row < size());
#endif
  HashDoubleGather(values_.data(), rows.data(), rows.size(), out);
}

void DoubleColumn::HashSlice(int64_t begin, int64_t end, uint64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= size());
  HashDoubleSpan(values_.data() + begin, static_cast<size_t>(end - begin),
                 out);
}

void StringColumn::HashRange(std::span<const int64_t> rows,
                             uint64_t* out) const {
  const int32_t* codes = codes_.data();
  const uint64_t* hashes = hashes_.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    NDV_DCHECK(0 <= rows[i] && rows[i] < size());
    out[i] = hashes[static_cast<size_t>(codes[rows[i]])];
  }
}

void StringColumn::HashSlice(int64_t begin, int64_t end, uint64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= size());
  HashLookupCodes32(codes_.data() + begin, hashes_.data(),
                    static_cast<size_t>(end - begin), out);
}

StringColumn::StringColumn(const std::vector<std::string>& values) {
  // NOLINTNEXTLINE(ndv-no-std-hash-container): interning map, lookups only;
  // codes are assigned in input order, never map iteration order.
  std::unordered_map<std::string, int32_t> index;
  index.reserve(values.size());
  codes_.reserve(values.size());
  for (const std::string& v : values) {
    auto [it, inserted] =
        index.emplace(v, static_cast<int32_t>(dictionary_.size()));
    if (inserted) dictionary_.push_back(v);
    codes_.push_back(it->second);
  }
  ComputeHashes();
}

StringColumn::StringColumn(std::vector<std::string> dictionary,
                           std::vector<int32_t> codes)
    : dictionary_(std::move(dictionary)), codes_(std::move(codes)) {
  for (int32_t code : codes_) {
    NDV_CHECK(0 <= code &&
              code < static_cast<int32_t>(dictionary_.size()));
  }
  ComputeHashes();
}

void StringColumn::ComputeHashes() {
  hashes_.reserve(dictionary_.size());
  for (const std::string& s : dictionary_) hashes_.push_back(HashBytes(s));
}

}  // namespace ndv
