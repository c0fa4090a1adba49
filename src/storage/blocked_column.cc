#include "storage/blocked_column.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/value_hash.h"
#include "storage/mapped_file.h"

namespace ndv {

namespace {

// Per-thread single-block decode caches, shared by every blocked column in
// the process. A cache entry is keyed by (column instance id, block), so a
// thread re-hashing inside one block (per-row HashAt in row order, or a
// slice walk) decodes it once; a different thread never observes another
// thread's scratch. Column ids are process-unique (monotone counter), so a
// recycled heap address can never revive a dead column's cache entry. One
// block is all a caller needs as long as it visits rows block by block,
// which the slice walks do by construction. HashRange does not use the
// cache: it reads its rows in place (GatherInPlace).
uint64_t NextColumnId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Every decode of a compressed block into a thread cache, process-wide.
std::atomic<int64_t> block_decodes{0};

void CountBlockDecode() {
  block_decodes.fetch_add(1, std::memory_order_relaxed);
}

struct Int64BlockCache {
  uint64_t column = 0;
  int64_t block = -1;
  std::vector<int64_t> values;
};

Int64BlockCache& ThreadInt64Cache() {
  static thread_local Int64BlockCache cache;
  return cache;
}

struct CodeBlockCache {
  uint64_t column = 0;
  int64_t block = -1;
  std::vector<int32_t> codes;
};

CodeBlockCache& ThreadCodeCache() {
  static thread_local CodeBlockCache cache;
  return cache;
}

// A gather list bucketed by block: the rows of block first_block + k
// occupy [starts[k], starts[k + 1]) of `positions` (their request
// positions, in request order) and `offsets` (their offsets in the block).
struct BlockBuckets {
  int64_t first_block = 0;
  std::vector<size_t> starts;
  std::vector<size_t> positions;
  std::vector<uint32_t> offsets;
};

// Splits rows at block boundaries with a shift and a mask when block_rows
// is a power of two (the writer's default is), by division otherwise.
class RowSplit {
 public:
  explicit RowSplit(int64_t block_rows)
      : block_rows_(block_rows),
        shift_(std::has_single_bit(static_cast<uint64_t>(block_rows))
                   ? std::countr_zero(static_cast<uint64_t>(block_rows))
                   : -1) {}

  int64_t Block(int64_t row) const {
    return shift_ >= 0 ? row >> shift_ : row / block_rows_;
  }
  uint32_t Offset(int64_t row) const {
    return static_cast<uint32_t>(shift_ >= 0 ? row & (block_rows_ - 1)
                                             : row % block_rows_);
  }

 private:
  int64_t block_rows_;
  int shift_;
};

// Buckets `rows` by block with one counting pass: O(rows + blocks
// spanned), no comparison (a comparison sort of a 1% sample cost more than
// the in-place reads save). Positions are size_t, so any span the caller
// can hold is indexable.
BlockBuckets BucketByBlock(std::span<const int64_t> rows, int64_t column_rows,
                           int64_t block_rows) {
  NDV_DCHECK(!rows.empty());
  const RowSplit split(block_rows);
  int64_t first = std::numeric_limits<int64_t>::max();
  int64_t last = 0;
  for (const int64_t row : rows) {
    NDV_DCHECK(0 <= row && row < column_rows);
    first = std::min(first, split.Block(row));
    last = std::max(last, split.Block(row));
  }
  BlockBuckets buckets;
  buckets.first_block = first;
  buckets.starts.assign(static_cast<size_t>(last - first) + 2, 0);
  for (const int64_t row : rows) {
    ++buckets.starts[static_cast<size_t>(split.Block(row) - first) + 1];
  }
  std::partial_sum(buckets.starts.begin(), buckets.starts.end(),
                   buckets.starts.begin());
  std::vector<size_t> next(buckets.starts.begin(), buckets.starts.end() - 1);
  buckets.positions.resize(rows.size());
  buckets.offsets.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t j = next[static_cast<size_t>(split.Block(rows[i]) - first)]++;
    buckets.positions[j] = i;
    buckets.offsets[j] = split.Offset(rows[i]);
  }
  return buckets;
}

// Gathers out[i] = hash_of(rows[i]'s value) for a blocked column without
// decoding a block: the rows are bucketed by block, and
// read_block(block, offsets, values) reads one block's sampled values in
// place into the matching run of an r-sized buffer. Each hash is written
// back at its request position, so `out` is the same as a per-row gather
// in request order.
template <typename Value, typename ReadBlock, typename HashOf>
void GatherInPlace(std::span<const int64_t> rows, int64_t column_rows,
                   int64_t block_rows, ReadBlock&& read_block,
                   HashOf&& hash_of, uint64_t* out) {
  if (rows.empty()) return;
  const BlockBuckets buckets = BucketByBlock(rows, column_rows, block_rows);
  std::vector<Value> values(rows.size());
  for (size_t k = 0; k + 1 < buckets.starts.size(); ++k) {
    const size_t begin = buckets.starts[k];
    const size_t end = buckets.starts[k + 1];
    if (begin == end) continue;
    read_block(buckets.first_block + static_cast<int64_t>(k),
               std::span<const uint32_t>(buckets.offsets.data() + begin,
                                         end - begin),
               values.data() + begin);
  }
  for (size_t j = 0; j < values.size(); ++j) {
    out[buckets.positions[j]] = hash_of(values[j]);
  }
}

// Declares a sequential read of the bounding byte range of every block; the
// writer lays blocks out in offset order, but computing min/max keeps the
// advice correct for any validated directory.
void AdviseBlocks(const std::vector<PackBlockRef>& blocks) {
  if (blocks.empty()) return;
  const uint8_t* lo = blocks.front().data;
  const uint8_t* hi = blocks.front().data + blocks.front().length;
  for (const PackBlockRef& block : blocks) {
    lo = std::min(lo, block.data);
    hi = std::max(hi, block.data + block.length);
  }
  AdviseSequentialRange(lo, static_cast<size_t>(hi - lo));
}

}  // namespace

int64_t BlockDecodeCount() {
  return block_decodes.load(std::memory_order_relaxed);
}

// --- BlockedInt64Column. ---------------------------------------------------

BlockedInt64Column::BlockedInt64Column(int64_t rows, int64_t block_rows,
                                       std::vector<PackBlockRef> blocks,
                                       std::shared_ptr<const void> owner)
    : cache_id_(NextColumnId()),
      rows_(rows),
      block_rows_(block_rows),
      blocks_(std::move(blocks)),
      owner_(std::move(owner)) {
  NDV_CHECK_GE(block_rows_, 1);
  NDV_CHECK_GE(rows_, 0);
}

const int64_t* BlockedInt64Column::BlockValues(int64_t block) const {
  const PackBlockRef& blk = blocks_[static_cast<size_t>(block)];
  if (blk.codec == PackBlockCodec::kRaw) {
    // Raw payloads are 8-aligned in the file (validated at parse).
    return reinterpret_cast<const int64_t*>(blk.data);
  }
  Int64BlockCache& cache = ThreadInt64Cache();
  if (cache.column == cache_id_ && cache.block == block) {
    return cache.values.data();
  }
  cache.values.resize(static_cast<size_t>(blk.rows));
  CountBlockDecode();
  DecodeInt64Block(blk.codec, blk.param, blk.rows, blk.data,
                   cache.values.data());
  cache.column = cache_id_;
  cache.block = block;
  return cache.values.data();
}

uint64_t BlockedInt64Column::HashAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  const int64_t offset = row - block * block_rows_;
  return Hash64(static_cast<uint64_t>(BlockValues(block)[offset]));
}

void BlockedInt64Column::HashRange(std::span<const int64_t> rows,
                                   uint64_t* out) const {
  const auto read = [this](int64_t block, std::span<const uint32_t> offsets,
                           int64_t* values) {
    const PackBlockRef& blk = blocks_[static_cast<size_t>(block)];
    GatherInt64Block(blk.codec, blk.param, blk.rows, blk.data, offsets,
                     values);
  };
  const auto hash = [](int64_t value) {
    return Hash64(static_cast<uint64_t>(value));
  };
  GatherInPlace<int64_t>(rows, rows_, block_rows_, read, hash, out);
}

void BlockedInt64Column::HashSlice(int64_t begin, int64_t end,
                                   uint64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    HashInt64Span(BlockValues(block) + offset, static_cast<size_t>(take),
                  out + (row - begin));
    row += take;
  }
}

std::string BlockedInt64Column::ValueToString(int64_t row) const {
  return std::to_string(ValueAt(row));
}

int64_t BlockedInt64Column::ValueAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  return BlockValues(block)[row - block * block_rows_];
}

void BlockedInt64Column::CopyValues(int64_t begin, int64_t end,
                                    int64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    std::memcpy(out + (row - begin), BlockValues(block) + offset,
                static_cast<size_t>(take) * sizeof(int64_t));
    row += take;
  }
}

void BlockedInt64Column::PrepareFullScan() const { AdviseBlocks(blocks_); }

// --- BlockedDoubleColumn. --------------------------------------------------

BlockedDoubleColumn::BlockedDoubleColumn(int64_t rows, int64_t block_rows,
                                         std::vector<PackBlockRef> blocks,
                                         std::shared_ptr<const void> owner)
    : rows_(rows),
      block_rows_(block_rows),
      blocks_(std::move(blocks)),
      owner_(std::move(owner)) {
  NDV_CHECK_GE(block_rows_, 1);
  NDV_CHECK_GE(rows_, 0);
#if NDV_DCHECK_ENABLED
  // The parser only admits raw double blocks, so every block aliases.
  for (const PackBlockRef& blk : blocks_) {
    NDV_DCHECK(blk.codec == PackBlockCodec::kRaw);
  }
#endif
}

const double* BlockedDoubleColumn::BlockValues(int64_t block) const {
  return reinterpret_cast<const double*>(
      blocks_[static_cast<size_t>(block)].data);
}

uint64_t BlockedDoubleColumn::HashAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  return HashDoubleValue(BlockValues(block)[row - block * block_rows_]);
}

void BlockedDoubleColumn::HashRange(std::span<const int64_t> rows,
                                    uint64_t* out) const {
  for (size_t i = 0; i < rows.size(); ++i) {
    NDV_DCHECK(0 <= rows[i] && rows[i] < rows_);
    const int64_t block = rows[i] / block_rows_;
    out[i] = HashDoubleValue(BlockValues(block)[rows[i] - block * block_rows_]);
  }
}

void BlockedDoubleColumn::HashSlice(int64_t begin, int64_t end,
                                    uint64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    HashDoubleSpan(BlockValues(block) + offset, static_cast<size_t>(take),
                   out + (row - begin));
    row += take;
  }
}

std::string BlockedDoubleColumn::ValueToString(int64_t row) const {
  return std::to_string(ValueAt(row));
}

double BlockedDoubleColumn::ValueAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  return BlockValues(block)[row - block * block_rows_];
}

void BlockedDoubleColumn::CopyValues(int64_t begin, int64_t end,
                                     double* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    std::memcpy(out + (row - begin), BlockValues(block) + offset,
                static_cast<size_t>(take) * sizeof(double));
    row += take;
  }
}

void BlockedDoubleColumn::PrepareFullScan() const { AdviseBlocks(blocks_); }

// --- BlockedStringColumn. --------------------------------------------------

BlockedStringColumn::BlockedStringColumn(int64_t rows, int64_t block_rows,
                                         std::vector<PackBlockRef> blocks,
                                         std::span<const uint64_t> dict_offsets,
                                         const char* blob,
                                         std::shared_ptr<const void> owner)
    : cache_id_(NextColumnId()),
      rows_(rows),
      block_rows_(block_rows),
      blocks_(std::move(blocks)),
      dict_offsets_(dict_offsets),
      blob_(blob),
      owner_(std::move(owner)) {
  NDV_CHECK_GE(block_rows_, 1);
  NDV_CHECK_GE(rows_, 0);
  NDV_CHECK_GE(dict_offsets_.size(), 1u);
  const size_t dict_count = dict_offsets_.size() - 1;
  hashes_.reserve(dict_count);
  for (size_t i = 0; i < dict_count; ++i) {
    NDV_CHECK_LE(dict_offsets_[i], dict_offsets_[i + 1]);
    hashes_.push_back(HashBytes(
        {blob_ + dict_offsets_[i], dict_offsets_[i + 1] - dict_offsets_[i]}));
  }
}

const int32_t* BlockedStringColumn::BlockCodes(int64_t block) const {
  const PackBlockRef& blk = blocks_[static_cast<size_t>(block)];
  if (blk.codec == PackBlockCodec::kRaw) {
    // Raw code payloads are 4-aligned in the file (validated at parse).
    return reinterpret_cast<const int32_t*>(blk.data);
  }
  CodeBlockCache& cache = ThreadCodeCache();
  if (cache.column == cache_id_ && cache.block == block) {
    return cache.codes.data();
  }
  cache.codes.resize(static_cast<size_t>(blk.rows));
  CountBlockDecode();
  DecodeCodesBlock(blk.codec, blk.param, blk.rows, blk.data,
                   cache.codes.data());
  cache.column = cache_id_;
  cache.block = block;
  return cache.codes.data();
}

uint64_t BlockedStringColumn::HashAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  const int32_t code = BlockCodes(block)[row - block * block_rows_];
  return hashes_[static_cast<size_t>(code)];
}

void BlockedStringColumn::HashRange(std::span<const int64_t> rows,
                                    uint64_t* out) const {
  const auto read = [this](int64_t block, std::span<const uint32_t> offsets,
                           int32_t* codes) {
    const PackBlockRef& blk = blocks_[static_cast<size_t>(block)];
    GatherCodesBlock(blk.codec, blk.param, blk.data, offsets, codes);
  };
  const auto hash = [this](int32_t code) {
    return hashes_[static_cast<size_t>(code)];
  };
  GatherInPlace<int32_t>(rows, rows_, block_rows_, read, hash, out);
}

void BlockedStringColumn::HashSlice(int64_t begin, int64_t end,
                                    uint64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    HashLookupCodes32(BlockCodes(block) + offset, hashes_.data(),
                      static_cast<size_t>(take), out + (row - begin));
    row += take;
  }
}

std::string BlockedStringColumn::ValueToString(int64_t row) const {
  return std::string(DictionaryEntry(CodeAt(row)));
}

int32_t BlockedStringColumn::CodeAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  return BlockCodes(block)[row - block * block_rows_];
}

void BlockedStringColumn::CopyCodes(int64_t begin, int64_t end,
                                    int32_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    std::memcpy(out + (row - begin), BlockCodes(block) + offset,
                static_cast<size_t>(take) * sizeof(int32_t));
    row += take;
  }
}

void BlockedStringColumn::PrepareFullScan() const { AdviseBlocks(blocks_); }

}  // namespace ndv
