#include "common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crash_point.h"

namespace ndv {
namespace {

Status ErrnoError(const char* op, const std::string& path) {
  return InternalError("%s %s failed: %s", op, path.c_str(),
                       std::strerror(errno));
}

// RAII fd so every early return closes.
class UniqueFd {
 public:
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

}  // namespace

Status WriteAllFd(int fd, std::string_view bytes, const char* what) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return InternalError("write of %s failed after %zu of %zu bytes: %s",
                           what, written, bytes.size(),
                           std::strerror(errno));
    }
    if (n == 0) {
      return InternalError("write of %s stalled at %zu of %zu bytes", what,
                           written, bytes.size());
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status FsyncFd(int fd, const char* what) {
  while (::fsync(fd) < 0) {
    if (errno == EINTR) continue;
    // A failed fsync means the dirty pages may already be gone; the caller
    // must treat the data as NOT durable and fail the acknowledgment.
    return InternalError("fsync of %s failed: %s", what,
                         std::strerror(errno));
  }
  return Status::Ok();
}

Status FsyncDirOf(const std::string& path) {
  std::string dir;
  struct stat info;
  if (::stat(path.c_str(), &info) == 0 && S_ISDIR(info.st_mode)) {
    dir = path;
  } else {
    const size_t slash = path.rfind('/');
    if (slash == std::string::npos) {
      dir.assign(1, '.');
    } else if (slash == 0) {
      dir.assign(1, '/');
    } else {
      dir = path.substr(0, slash);
    }
  }
  const UniqueFd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
  if (fd.get() < 0) return ErrnoError("open directory", dir);
  return FsyncFd(fd.get(), dir.c_str());
}

Status EnsureDirectory(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::Ok();
  }
  return ErrnoError("mkdir", dir);
}

StatusOr<std::string> ReadFileOrStatus(const std::string& path) {
  const UniqueFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) {
    if (errno == ENOENT) {
      return NotFoundError("%s does not exist", path.c_str());
    }
    return ErrnoError("open", path);
  }
  struct stat info;
  if (::fstat(fd.get(), &info) < 0) return ErrnoError("stat", path);
  std::string contents;
  contents.resize(static_cast<size_t>(info.st_size));
  size_t read_bytes = 0;
  while (read_bytes < contents.size()) {
    const ssize_t n = ::read(fd.get(), contents.data() + read_bytes,
                             contents.size() - read_bytes);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("read", path);
    }
    if (n == 0) break;  // File shrank under us; keep what we got.
    read_bytes += static_cast<size_t>(n);
  }
  contents.resize(read_bytes);
  return contents;
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes,
                       bool sync) {
  const std::string temp_path = path + ".tmp";
  {
    const UniqueFd fd(::open(temp_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                             0644));
    if (fd.get() < 0) return ErrnoError("open", temp_path);
    NDV_CRASH_POINT("atomic_write.opened");
    NDV_RETURN_IF_ERROR(WriteAllFd(fd.get(), bytes, temp_path.c_str()));
    NDV_CRASH_POINT("atomic_write.written");
    if (sync) {
      NDV_RETURN_IF_ERROR(FsyncFd(fd.get(), temp_path.c_str()));
      NDV_CRASH_POINT("atomic_write.synced");
    }
  }
  NDV_RETURN_IF_ERROR(RenameFile(temp_path, path));
  NDV_CRASH_POINT("atomic_write.renamed");
  if (sync) {
    NDV_RETURN_IF_ERROR(FsyncDirOf(path));
    NDV_CRASH_POINT("atomic_write.dir_synced");
  }
  return Status::Ok();
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) < 0) {
    return InternalError("rename %s -> %s failed: %s", from.c_str(),
                         to.c_str(), std::strerror(errno));
  }
  return Status::Ok();
}

Status TruncateFile(const std::string& path, int64_t size) {
  while (::truncate(path.c_str(), static_cast<off_t>(size)) < 0) {
    if (errno == EINTR) continue;
    return ErrnoError("truncate", path);
  }
  return Status::Ok();
}

bool FileExists(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0;
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) == 0 || errno == ENOENT) return Status::Ok();
  return ErrnoError("unlink", path);
}

}  // namespace ndv
