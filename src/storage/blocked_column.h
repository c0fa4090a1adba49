#ifndef NDV_STORAGE_BLOCKED_COLUMN_H_
#define NDV_STORAGE_BLOCKED_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "storage/pack_codec.h"
#include "table/column.h"

namespace ndv {

// Column implementations over an ndvpack v2 block directory. A column is
// a sequence of independently-coded blocks: raw blocks are aliased in
// place (zero-copy), compressed blocks (delta, narrow dict codes) decode on
// demand into a small per-thread scratch buffer — one block at a time, so
// a full scan runs in bounded memory.
//
// The cache holds one block, so callers must visit rows block by block to
// decode each block once; the slice walks (HashSlice, Copy*) do by
// construction. HashRange, the sampled gather, decodes nothing: it buckets
// its gather list by block with one counting pass, reads each block's
// sampled rows in place (GatherInt64Block / GatherCodesBlock), and writes
// each hash back at its request position, so the output is identical to
// per-row HashAt in request order.
//
// Thread safety / determinism: the decode scratch is thread_local (keyed
// by column + block index), so concurrent scans never share mutable state
// and hashing is bit-identical to the heap path at every thread count.
// All blocks must have been validated by the pack reader before a column
// is built; the decode loops only DCHECK.

// Number of compressed blocks decoded into a thread cache since process
// start, across every blocked column and thread (relaxed atomic, always
// on). Raw blocks alias the mapping and never count.
int64_t BlockDecodeCount();

// One block of a v2 column: directory metadata plus a pointer into the
// (validated) mapping.
struct PackBlockRef {
  PackBlockCodec codec = PackBlockCodec::kRaw;
  uint8_t param = 0;
  int64_t rows = 0;
  const uint8_t* data = nullptr;
  uint64_t length = 0;
};

// Column of int64 values over raw/delta blocks.
class BlockedInt64Column final : public Column {
 public:
  BlockedInt64Column(int64_t rows, int64_t block_rows,
                     std::vector<PackBlockRef> blocks,
                     std::shared_ptr<const void> owner);

  ColumnType type() const override { return ColumnType::kInt64; }
  int64_t size() const override { return rows_; }
  uint64_t HashAt(int64_t row) const override;
  void HashRange(std::span<const int64_t> rows, uint64_t* out) const override;
  void HashSlice(int64_t begin, int64_t end, uint64_t* out) const override;
  std::string ValueToString(int64_t row) const override;
  void PrepareFullScan() const override;

  int64_t ValueAt(int64_t row) const;
  // Decodes rows [begin, end) into `out` (block at a time; bounded
  // scratch). The repack path uses this to stream a v2 column back
  // through a writer without materializing it.
  void CopyValues(int64_t begin, int64_t end, int64_t* out) const;
  int64_t block_rows() const { return block_rows_; }
  const std::vector<PackBlockRef>& blocks() const { return blocks_; }

 private:
  // Returns a pointer to the block's decoded values: the aliased payload
  // for raw blocks, the per-thread decode cache otherwise.
  const int64_t* BlockValues(int64_t block) const;

  uint64_t cache_id_;  // process-unique key for the thread decode caches
  int64_t rows_;
  int64_t block_rows_;
  std::vector<PackBlockRef> blocks_;
  std::shared_ptr<const void> owner_;
};

// Column of doubles. v2 stores doubles raw-only, so every block aliases.
class BlockedDoubleColumn final : public Column {
 public:
  BlockedDoubleColumn(int64_t rows, int64_t block_rows,
                      std::vector<PackBlockRef> blocks,
                      std::shared_ptr<const void> owner);

  ColumnType type() const override { return ColumnType::kDouble; }
  int64_t size() const override { return rows_; }
  uint64_t HashAt(int64_t row) const override;
  void HashRange(std::span<const int64_t> rows, uint64_t* out) const override;
  void HashSlice(int64_t begin, int64_t end, uint64_t* out) const override;
  std::string ValueToString(int64_t row) const override;
  void PrepareFullScan() const override;

  double ValueAt(int64_t row) const;
  void CopyValues(int64_t begin, int64_t end, double* out) const;
  int64_t block_rows() const { return block_rows_; }

 private:
  const double* BlockValues(int64_t block) const;

  int64_t rows_;
  int64_t block_rows_;
  std::vector<PackBlockRef> blocks_;
  std::shared_ptr<const void> owner_;
};

// Dictionary string column over raw/narrow code blocks plus the shared
// per-column dictionary (offsets + blob aliased from the mapping, hashes
// precomputed at open).
class BlockedStringColumn final : public Column {
 public:
  BlockedStringColumn(int64_t rows, int64_t block_rows,
                      std::vector<PackBlockRef> blocks,
                      std::span<const uint64_t> dict_offsets, const char* blob,
                      std::shared_ptr<const void> owner);

  ColumnType type() const override { return ColumnType::kString; }
  int64_t size() const override { return rows_; }
  uint64_t HashAt(int64_t row) const override;
  void HashRange(std::span<const int64_t> rows, uint64_t* out) const override;
  void HashSlice(int64_t begin, int64_t end, uint64_t* out) const override;
  std::string ValueToString(int64_t row) const override;
  void PrepareFullScan() const override;

  int64_t dictionary_size() const {
    return static_cast<int64_t>(hashes_.size());
  }
  std::string_view DictionaryEntry(int32_t code) const {
    NDV_DCHECK(0 <= code && code < dictionary_size());
    const auto i = static_cast<size_t>(code);
    return {blob_ + dict_offsets_[i], dict_offsets_[i + 1] - dict_offsets_[i]};
  }
  int32_t CodeAt(int64_t row) const;
  void CopyCodes(int64_t begin, int64_t end, int32_t* out) const;
  int64_t block_rows() const { return block_rows_; }

 private:
  const int32_t* BlockCodes(int64_t block) const;

  uint64_t cache_id_;  // process-unique key for the thread decode caches
  int64_t rows_;
  int64_t block_rows_;
  std::vector<PackBlockRef> blocks_;
  std::span<const uint64_t> dict_offsets_;
  const char* blob_;
  std::vector<uint64_t> hashes_;  // one per dictionary entry
  std::shared_ptr<const void> owner_;
};

}  // namespace ndv

#endif  // NDV_STORAGE_BLOCKED_COLUMN_H_
