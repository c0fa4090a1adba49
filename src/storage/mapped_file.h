#ifndef NDV_STORAGE_MAPPED_FILE_H_
#define NDV_STORAGE_MAPPED_FILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/status.h"

namespace ndv {

// A read-only memory-mapped file (POSIX mmap). The mapping is private and
// read-only; the bytes live for exactly as long as the MappedFile does.
// Consumers that hand out views into the mapping (the block-granular
// columns in storage/blocked_column.h) co-own it through a shared_ptr, so
// a view can never outlive its backing pages.
//
// An empty file maps to an empty span with no underlying mmap call.
class MappedFile {
 public:
  // Maps `path` read-only. Fails with NotFound / InvalidArgument /
  // Internal (with errno text) rather than aborting: file problems are
  // recoverable input errors under the library's error contract.
  static StatusOr<std::shared_ptr<MappedFile>> Open(const std::string& path);

  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const uint8_t> bytes() const {
    return {static_cast<const uint8_t*>(data_), size_};
  }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  // Hints that [offset, offset + length) is about to be read once, front
  // to back (madvise SEQUENTIAL: aggressive readahead, early reclaim).
  // Best-effort: errors are ignored, the hint never affects correctness.
  // No-op for empty mappings or out-of-range spans.
  void AdviseSequential(size_t offset, size_t length) const;

 private:
  MappedFile(std::string path, void* data, size_t size)
      : path_(std::move(path)), data_(data), size_(size) {}

  std::string path_;
  void* data_ = nullptr;  // nullptr iff size_ == 0
  size_t size_ = 0;
};

// Free-standing best-effort sequential-read hint over an arbitrary readable
// range (page-aligned internally, errors ignored). Valid on any mapped — or
// even heap — memory, so column implementations can advise through the raw
// pointers they hold without a handle on the MappedFile.
void AdviseSequentialRange(const void* data, size_t length);

// Reads the whole file at `path` into one string in a single pass (stat for
// the size, then read straight into the destination buffer — no
// stringstream double copy). Errors surface as Status, never as an abort.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace ndv

#endif  // NDV_STORAGE_MAPPED_FILE_H_
