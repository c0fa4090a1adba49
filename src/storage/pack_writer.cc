#include "storage/pack_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "common/byte_codec.h"
#include "common/check.h"
#include "common/file_io.h"
#include "common/simd_hash.h"
#include "storage/blocked_column.h"

namespace ndv {

namespace {

constexpr uint32_t kTypeInt64 = 0;
constexpr uint32_t kTypeDouble = 1;
constexpr uint32_t kTypeString = 2;

// Rows per chunk when streaming an existing column through the writer.
constexpr int64_t kRepackChunkRows = 8192;

}  // namespace

// --- Sinks. ----------------------------------------------------------------

// Byte destination for the streamed file image. Append is the hot path;
// WriteAt exists solely to back-patch the reserved header region at
// Finalize.
class PackWriter::Sink {
 public:
  virtual ~Sink() = default;
  virtual Status Append(std::string_view bytes) = 0;
  virtual Status WriteAt(uint64_t offset, std::string_view bytes) = 0;
  // Makes the finished image visible at its destination (file mode: fsync
  // + rename into place).
  virtual Status Commit() = 0;
  // Abandons a never-committed image (file mode: unlink the temp file).
  virtual void Abandon() = 0;
};

class PackWriter::FileSink final : public Sink {
 public:
  static StatusOr<std::unique_ptr<FileSink>> Open(const std::string& path) {
    auto sink = std::unique_ptr<FileSink>(new FileSink(path));
    sink->fd_ = ::open(sink->tmp_path_.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (sink->fd_ < 0) {
      return InternalError("open %s: %s", sink->tmp_path_.c_str(),
                           std::strerror(errno));
    }
    return sink;
  }

  ~FileSink() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view bytes) override {
    return WriteAllFd(fd_, bytes, "pack stream");
  }

  Status WriteAt(uint64_t offset, std::string_view bytes) override {
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n =
          ::pwrite(fd_, bytes.data() + done, bytes.size() - done,
                   static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return InternalError("pwrite %s at %llu: %s", tmp_path_.c_str(),
                             static_cast<unsigned long long>(offset + done),
                             std::strerror(errno));
      }
      done += static_cast<size_t>(n);
    }
    return Status::Ok();
  }

  Status Commit() override {
    NDV_RETURN_IF_ERROR(FsyncFd(fd_, tmp_path_.c_str()));
    if (::close(fd_) != 0) {
      fd_ = -1;
      return InternalError("close %s: %s", tmp_path_.c_str(),
                           std::strerror(errno));
    }
    fd_ = -1;
    NDV_RETURN_IF_ERROR(RenameFile(tmp_path_, path_));
    return FsyncDirOf(path_);
  }

  void Abandon() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    const Status ignored = RemoveFileIfExists(tmp_path_);
    static_cast<void>(ignored);
  }

 private:
  explicit FileSink(std::string path)
      : path_(std::move(path)), tmp_path_(path_ + ".tmp") {}

  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
};

class PackWriter::StringSink final : public Sink {
 public:
  explicit StringSink(std::string* out) : out_(out) { out_->clear(); }

  Status Append(std::string_view bytes) override {
    out_->append(bytes);
    return Status::Ok();
  }

  Status WriteAt(uint64_t offset, std::string_view bytes) override {
    NDV_CHECK_LE(offset + bytes.size(), out_->size());
    std::memcpy(out_->data() + offset, bytes.data(), bytes.size());
    return Status::Ok();
  }

  Status Commit() override { return Status::Ok(); }

  void Abandon() override { out_->clear(); }

 private:
  std::string* out_;
};

// --- PackWriter. -----------------------------------------------------------

PackWriter::PackWriter(std::unique_ptr<Sink> sink,
                       const PackWriteOptions& options)
    : sink_(std::move(sink)), options_(options) {
  NDV_CHECK_GE(options_.block_rows, 1);
  NDV_CHECK_LE(options_.block_rows, kMaxPackBlockRows);
  // Reserve the header region; it is back-patched at Finalize and is not
  // part of the trailer checksum stream.
  const std::string reserved(kPackV2HeaderBytes, '\0');
  failed_ = !sink_->Append(reserved).ok();
}

PackWriter::~PackWriter() {
  if (!finalized_) sink_->Abandon();
}

StatusOr<std::unique_ptr<PackWriter>> PackWriter::Create(
    const std::string& path, const PackWriteOptions& options) {
  auto sink = FileSink::Open(path);
  if (!sink.ok()) return sink.status();
  auto writer = std::unique_ptr<PackWriter>(
      new PackWriter(std::move(*sink), options));
  if (writer->failed_) {
    return InternalError("pack %s: failed to reserve header", path.c_str());
  }
  return writer;
}

std::unique_ptr<PackWriter> PackWriter::CreateInMemory(
    std::string* out, const PackWriteOptions& options) {
  auto writer = std::unique_ptr<PackWriter>(
      new PackWriter(std::make_unique<StringSink>(out), options));
  NDV_CHECK(!writer->failed_);  // String appends cannot fail.
  return writer;
}

Status PackWriter::Emit(std::string_view bytes) {
  trailer_sum_.Append(bytes);
  const Status status = sink_->Append(bytes);
  if (!status.ok()) {
    failed_ = true;
    return status;
  }
  offset_ += bytes.size();
  return Status::Ok();
}

Status PackWriter::PadTo8() {
  static constexpr char kZeros[8] = {};
  const uint64_t misalign = offset_ % 8;
  if (misalign == 0) return Status::Ok();
  return Emit({kZeros, static_cast<size_t>(8 - misalign)});
}

Status PackWriter::StartColumn(std::string_view name, ColumnType type) {
  NDV_CHECK(!column_open_ && !finalized_);
  if (failed_) return InternalError("pack writer already failed");
  NDV_CHECK_LE(name.size(),
               static_cast<size_t>(std::numeric_limits<uint32_t>::max()));
  ColumnEntry entry;
  entry.name = std::string(name);
  entry.type = type;
  columns_.push_back(std::move(entry));
  column_open_ = true;
  int64_buffer_.clear();
  double_buffer_.clear();
  code_buffer_.clear();
  dict_index_.clear();
  dict_entries_.clear();
  return Status::Ok();
}

Status PackWriter::FlushBlock() {
  ColumnEntry& column = columns_.back();
  size_t buffered = 0;
  encode_buffer_.clear();
  PackBlockEncoding encoding;
  switch (column.type) {
    case ColumnType::kInt64:
      buffered = int64_buffer_.size();
      if (buffered == 0) return Status::Ok();
      encoding = EncodeInt64Block(int64_buffer_, options_.codec,
                                  &encode_buffer_);
      break;
    case ColumnType::kDouble:
      buffered = double_buffer_.size();
      if (buffered == 0) return Status::Ok();
      encoding = EncodeDoubleBlock(double_buffer_, &encode_buffer_);
      break;
    case ColumnType::kString:
      buffered = code_buffer_.size();
      if (buffered == 0) return Status::Ok();
      encoding = EncodeCodesBlock(code_buffer_, options_.codec,
                                  &encode_buffer_);
      break;
  }
  NDV_RETURN_IF_ERROR(PadTo8());
  BlockEntry block;
  block.codec = encoding.codec;
  block.param = encoding.param;
  block.rows = static_cast<uint32_t>(buffered);
  block.offset = offset_;
  block.length = encode_buffer_.size();
  NDV_RETURN_IF_ERROR(Emit(encode_buffer_));
  column.blocks.push_back(block);
  column.rows += static_cast<int64_t>(buffered);
  int64_buffer_.clear();
  double_buffer_.clear();
  code_buffer_.clear();
  return Status::Ok();
}

Status PackWriter::AppendInt64s(std::span<const int64_t> values) {
  NDV_CHECK(column_open_);
  NDV_CHECK(columns_.back().type == ColumnType::kInt64);
  if (failed_) return InternalError("pack writer already failed");
  const auto block_rows = static_cast<size_t>(options_.block_rows);
  size_t i = 0;
  while (i < values.size()) {
    const size_t take =
        std::min(values.size() - i, block_rows - int64_buffer_.size());
    int64_buffer_.insert(int64_buffer_.end(), values.begin() + i,
                         values.begin() + i + take);
    i += take;
    if (int64_buffer_.size() == block_rows) NDV_RETURN_IF_ERROR(FlushBlock());
  }
  return Status::Ok();
}

Status PackWriter::AppendDoubles(std::span<const double> values) {
  NDV_CHECK(column_open_);
  NDV_CHECK(columns_.back().type == ColumnType::kDouble);
  if (failed_) return InternalError("pack writer already failed");
  const auto block_rows = static_cast<size_t>(options_.block_rows);
  size_t i = 0;
  while (i < values.size()) {
    const size_t take =
        std::min(values.size() - i, block_rows - double_buffer_.size());
    double_buffer_.insert(double_buffer_.end(), values.begin() + i,
                          values.begin() + i + take);
    i += take;
    if (double_buffer_.size() == block_rows) NDV_RETURN_IF_ERROR(FlushBlock());
  }
  return Status::Ok();
}

Status PackWriter::AppendString(std::string_view value) {
  NDV_CHECK(column_open_);
  NDV_CHECK(columns_.back().type == ColumnType::kString);
  if (failed_) return InternalError("pack writer already failed");
  auto it = dict_index_.find(value);
  int32_t code;
  if (it != dict_index_.end()) {
    code = it->second;
  } else {
    if (dict_entries_.size() >
        static_cast<size_t>(std::numeric_limits<int32_t>::max() - 1)) {
      return InvalidArgumentError(
          "string column '%s' exceeds int32 code space",
          columns_.back().name.c_str());
    }
    code = static_cast<int32_t>(dict_entries_.size());
    dict_entries_.emplace_back(value);
    dict_index_.emplace(dict_entries_.back(), code);
  }
  code_buffer_.push_back(code);
  if (code_buffer_.size() == static_cast<size_t>(options_.block_rows)) {
    NDV_RETURN_IF_ERROR(FlushBlock());
  }
  return Status::Ok();
}

Status PackWriter::FlushDictionary() {
  ColumnEntry& column = columns_.back();
  NDV_RETURN_IF_ERROR(PadTo8());
  column.dict_count = dict_entries_.size();
  column.dict_offsets_offset = offset_;
  std::string offsets;
  offsets.reserve((dict_entries_.size() + 1) * sizeof(uint64_t));
  uint64_t blob_length = 0;
  for (const std::string& entry : dict_entries_) {
    PutU64(&offsets, blob_length);
    blob_length += entry.size();
  }
  PutU64(&offsets, blob_length);
  NDV_RETURN_IF_ERROR(Emit(offsets));
  column.dict_blob_offset = offset_;
  column.dict_blob_length = blob_length;
  for (const std::string& entry : dict_entries_) {
    NDV_RETURN_IF_ERROR(Emit(entry));
  }
  return Status::Ok();
}

Status PackWriter::FinishColumn() {
  NDV_CHECK(column_open_);
  if (failed_) return InternalError("pack writer already failed");
  NDV_RETURN_IF_ERROR(FlushBlock());
  if (columns_.back().type == ColumnType::kString) {
    NDV_RETURN_IF_ERROR(FlushDictionary());
  }
  dict_index_.clear();
  dict_entries_.clear();
  column_open_ = false;
  const int64_t rows = columns_.back().rows;
  if (row_count_ < 0) {
    row_count_ = rows;
  } else if (rows != row_count_) {
    failed_ = true;
    return InvalidArgumentError(
        "column '%s' has %lld rows; previous columns have %lld",
        columns_.back().name.c_str(), static_cast<long long>(rows),
        static_cast<long long>(row_count_));
  }
  return Status::Ok();
}

Status PackWriter::Finalize() {
  NDV_CHECK(!column_open_ && !finalized_);
  if (failed_) return InternalError("pack writer already failed");

  NDV_RETURN_IF_ERROR(PadTo8());
  const uint64_t directory_offset = offset_;
  std::string directory;
  for (const ColumnEntry& column : columns_) {
    PutString(&directory, column.name);
    switch (column.type) {
      case ColumnType::kInt64:
        PutU32(&directory, kTypeInt64);
        break;
      case ColumnType::kDouble:
        PutU32(&directory, kTypeDouble);
        break;
      case ColumnType::kString:
        PutU32(&directory, kTypeString);
        PutU64(&directory, column.dict_count);
        PutU64(&directory, column.dict_offsets_offset);
        PutU64(&directory, column.dict_blob_offset);
        PutU64(&directory, column.dict_blob_length);
        break;
    }
    PutU32(&directory, static_cast<uint32_t>(column.blocks.size()));
    for (const BlockEntry& block : column.blocks) {
      PutU8(&directory, static_cast<uint8_t>(block.codec));
      PutU8(&directory, block.param);
      PutU16(&directory, 0);  // reserved
      PutU32(&directory, block.rows);
      PutU64(&directory, block.offset);
      PutU64(&directory, block.length);
    }
  }
  NDV_RETURN_IF_ERROR(Emit(directory));

  // Trailer: checksum of everything streamed since the header region.
  std::string trailer;
  PutU64(&trailer, trailer_sum_.Finish());
  {
    const Status status = sink_->Append(trailer);
    if (!status.ok()) {
      failed_ = true;
      return status;
    }
    offset_ += trailer.size();
  }

  // Header, back-patched into the reserved region with its own checksum.
  std::string header;
  header.reserve(kPackV2HeaderBytes);
  header.append(kPackMagic);
  PutU32(&header, kPackVersion);
  PutU32(&header, static_cast<uint32_t>(columns_.size()));
  PutU64(&header, row_count_ < 0 ? 0 : static_cast<uint64_t>(row_count_));
  PutU64(&header, static_cast<uint64_t>(options_.block_rows));
  PutU64(&header, directory_offset);
  PutU64(&header, directory.size());
  NDV_CHECK_EQ(header.size(), kPackV2HeaderBytes - 8);
  PutU64(&header, Crc64Nvme(header));
  {
    const Status status = sink_->WriteAt(0, header);
    if (!status.ok()) {
      failed_ = true;
      return status;
    }
  }

  const Status status = sink_->Commit();
  if (!status.ok()) {
    failed_ = true;
    return status;
  }
  finalized_ = true;
  return Status::Ok();
}

// --- Table streaming. ------------------------------------------------------

Status AppendTableColumn(PackWriter& writer, const Table& table, int64_t c) {
  const Column& column = table.column(c);
  const int64_t rows = column.size();
  switch (column.type()) {
    case ColumnType::kInt64: {
      if (const auto* heap = dynamic_cast<const Int64Column*>(&column)) {
        return writer.AppendInt64s(heap->values());
      }
      if (const auto* blocked =
              dynamic_cast<const BlockedInt64Column*>(&column)) {
        std::vector<int64_t> chunk(static_cast<size_t>(
            std::min<int64_t>(rows > 0 ? rows : 1, kRepackChunkRows)));
        for (int64_t begin = 0; begin < rows; begin += kRepackChunkRows) {
          const int64_t end = std::min(rows, begin + kRepackChunkRows);
          blocked->CopyValues(begin, end, chunk.data());
          NDV_RETURN_IF_ERROR(writer.AppendInt64s(
              {chunk.data(), static_cast<size_t>(end - begin)}));
        }
        return Status::Ok();
      }
      break;
    }
    case ColumnType::kDouble: {
      if (const auto* heap = dynamic_cast<const DoubleColumn*>(&column)) {
        return writer.AppendDoubles(heap->values());
      }
      if (const auto* blocked =
              dynamic_cast<const BlockedDoubleColumn*>(&column)) {
        std::vector<double> chunk(static_cast<size_t>(
            std::min<int64_t>(rows > 0 ? rows : 1, kRepackChunkRows)));
        for (int64_t begin = 0; begin < rows; begin += kRepackChunkRows) {
          const int64_t end = std::min(rows, begin + kRepackChunkRows);
          blocked->CopyValues(begin, end, chunk.data());
          NDV_RETURN_IF_ERROR(writer.AppendDoubles(
              {chunk.data(), static_cast<size_t>(end - begin)}));
        }
        return Status::Ok();
      }
      break;
    }
    case ColumnType::kString: {
      if (const auto* heap = dynamic_cast<const StringColumn*>(&column)) {
        const std::vector<std::string>& dict = heap->dictionary();
        for (const int32_t code : heap->codes()) {
          NDV_RETURN_IF_ERROR(
              writer.AppendString(dict[static_cast<size_t>(code)]));
        }
        return Status::Ok();
      }
      if (const auto* blocked =
              dynamic_cast<const BlockedStringColumn*>(&column)) {
        std::vector<int32_t> chunk(static_cast<size_t>(
            std::min<int64_t>(rows > 0 ? rows : 1, kRepackChunkRows)));
        for (int64_t begin = 0; begin < rows; begin += kRepackChunkRows) {
          const int64_t end = std::min(rows, begin + kRepackChunkRows);
          blocked->CopyCodes(begin, end, chunk.data());
          for (int64_t i = 0; i < end - begin; ++i) {
            NDV_RETURN_IF_ERROR(writer.AppendString(
                blocked->DictionaryEntry(chunk[static_cast<size_t>(i)])));
          }
        }
        return Status::Ok();
      }
      break;
    }
  }
  NDV_CHECK_MSG(false, "AppendTableColumn: unsupported column class (%s)",
                std::string(ColumnTypeName(column.type())).c_str());
  return Status::Ok();  // Unreachable.
}

std::string SerializePackV2(const Table& table,
                            const PackWriteOptions& options) {
  std::string out;
  auto writer = PackWriter::CreateInMemory(&out, options);
  for (int64_t c = 0; c < table.NumColumns(); ++c) {
    Status status = writer->StartColumn(table.column_name(c),
                                        table.column(c).type());
    NDV_CHECK_MSG(status.ok(), "%s", std::string(status.message()).c_str());
    status = AppendTableColumn(*writer, table, c);
    NDV_CHECK_MSG(status.ok(), "%s", std::string(status.message()).c_str());
    status = writer->FinishColumn();
    NDV_CHECK_MSG(status.ok(), "%s", std::string(status.message()).c_str());
  }
  const Status status = writer->Finalize();
  NDV_CHECK_MSG(status.ok(), "%s", std::string(status.message()).c_str());
  return out;
}

Status WritePackFileV2(const Table& table, const std::string& path,
                       const PackWriteOptions& options) {
  auto writer = PackWriter::Create(path, options);
  if (!writer.ok()) return writer.status();
  for (int64_t c = 0; c < table.NumColumns(); ++c) {
    NDV_RETURN_IF_ERROR((*writer)->StartColumn(table.column_name(c),
                                               table.column(c).type()));
    NDV_RETURN_IF_ERROR(AppendTableColumn(**writer, table, c));
    NDV_RETURN_IF_ERROR((*writer)->FinishColumn());
  }
  return (*writer)->Finalize();
}

}  // namespace ndv
