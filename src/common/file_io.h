#ifndef NDV_COMMON_FILE_IO_H_
#define NDV_COMMON_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ndv {

// POSIX file primitives for the durability layer (catalog WAL/snapshots)
// and the ndvpack writer: EINTR-safe full writes, fsync with real error
// propagation, and the write-temp + fsync + atomic-rename pattern that
// makes a file replacement all-or-nothing under crashes.
//
// Everything returns Status — disk-full, permission, and torn-file
// conditions are recoverable input/environment errors under the library's
// error contract (common/status.h), never aborts. Crash-survivable
// boundaries inside these helpers are marked with NDV_CRASH_POINT sites
// (common/crash_point.h) so the chaos harness can kill the process between
// any two steps.

// Writes all of `bytes` to `fd`, retrying EINTR and short writes. A write
// returning 0 (or any persistent errno) is an Internal error naming the
// progress made.
Status WriteAllFd(int fd, std::string_view bytes, const char* what);

// fsync(fd), EINTR-retried; errors (EIO, ENOSPC) propagate — after a
// failed fsync the kernel may have dropped the dirty pages, so callers
// must NOT acknowledge the data as durable.
Status FsyncFd(int fd, const char* what);

// Opens the directory containing `path` (or `path` itself when it names a
// directory) and fsyncs it, making a previous rename/create in it durable.
Status FsyncDirOf(const std::string& path);

// mkdir -p for one level: OK when the directory already exists.
Status EnsureDirectory(const std::string& dir);

// Reads the whole file into one string (stat for size, EINTR-safe reads).
// ENOENT maps to NotFound so callers can branch on "no file yet".
StatusOr<std::string> ReadFileOrStatus(const std::string& path);

// Atomically replaces `path` with `bytes`: write `path`.tmp, fsync it,
// rename(2) over `path`, fsync the directory. After a crash at any point
// the destination holds either its old bytes or the new ones, never a mix;
// the temp file may be left behind and is overwritten by the next call.
// `sync` = false skips both fsyncs (callers with a weaker durability knob).
Status AtomicWriteFile(const std::string& path, std::string_view bytes,
                       bool sync = true);

// rename(2) with EINTR handling and a typed error naming both paths.
Status RenameFile(const std::string& from, const std::string& to);

// Truncates `path` to `size` bytes (WAL tail repair after torn-write
// recovery).
Status TruncateFile(const std::string& path, int64_t size);

// True when `path` exists (any file type).
bool FileExists(const std::string& path);

// Removes `path` if it exists; missing files are OK (idempotent cleanup).
Status RemoveFileIfExists(const std::string& path);

}  // namespace ndv

#endif  // NDV_COMMON_FILE_IO_H_
