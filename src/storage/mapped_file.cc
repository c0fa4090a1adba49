#include "storage/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

namespace ndv {

namespace {

Status ErrnoStatus(const char* op, const std::string& path, int err) {
  if (err == ENOENT) {
    return NotFoundError("%s %s: %s", op, path.c_str(), std::strerror(err));
  }
  return InvalidArgumentError("%s %s: %s", op, path.c_str(),
                              std::strerror(err));
}

}  // namespace

StatusOr<std::shared_ptr<MappedFile>> MappedFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path, errno);

  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("stat", path, err);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return InvalidArgumentError("map %s: not a regular file", path.c_str());
  }

  const auto size = static_cast<size_t>(st.st_size);
  void* data = nullptr;
  if (size > 0) {
    data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      return ErrnoStatus("mmap", path, err);
    }
  }
  // The mapping survives the close; the fd is only needed to establish it.
  ::close(fd);
  return std::shared_ptr<MappedFile>(new MappedFile(path, data, size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

void MappedFile::AdviseSequential(size_t offset, size_t length) const {
  if (data_ == nullptr || length == 0 || offset >= size_) return;
  if (length > size_ - offset) length = size_ - offset;
  AdviseSequentialRange(static_cast<const uint8_t*>(data_) + offset, length);
}

// Aligns [data, data + length) down to a page boundary and issues the
// advice; best effort, errors ignored (the range may be heap memory, where
// the advice is simply meaningless).
void AdviseSequentialRange(const void* data, size_t length) {
  if (data == nullptr || length == 0) return;
  const auto page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const auto addr = reinterpret_cast<uintptr_t>(data);
  const uintptr_t begin = (addr / page) * page;
  const size_t span = (addr - begin) + length;
  ::madvise(reinterpret_cast<void*>(begin), span, MADV_SEQUENTIAL);
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path, errno);

  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("stat", path, err);
  }

  std::string out;
  out.resize(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return ErrnoStatus("read", path, err);
    }
    if (n == 0) break;  // File shrank mid-read; return what we got.
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

}  // namespace ndv
