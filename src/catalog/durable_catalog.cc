#include "catalog/durable_catalog.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/byte_codec.h"
#include "common/check.h"
#include "common/crash_point.h"
#include "common/file_io.h"

namespace ndv {
namespace {

constexpr std::string_view kWalMagic = "NDVWAL1\n";
constexpr std::string_view kSnapshotMagic = "NDVSNAP1";
// u32 payload length + u64 payload checksum.
constexpr size_t kRecordHeaderBytes = 12;
// A single record above this is rejected as corrupt before any allocation
// happens off its length field (the WAL analogue of kMaxFramePayload).
constexpr size_t kMaxWalRecord = size_t{1} << 26;  // 64 MiB

enum class RecordKind : uint8_t {
  kPut = 1,      // one ColumnStats upsert
  kPublish = 2,  // whole-catalog replacement
};

// Snapshot image: magic | u64 epoch | u32 length | catalog v2 text |
// u64 Checksum64 of everything before the trailer. The catalog travels in
// its existing v2 text serialization so snapshot bytes stay debuggable
// with `cat` and compatible with StatsCatalog's own format evolution.
std::string EncodeSnapshot(const StatsCatalog& catalog, uint64_t epoch) {
  std::string out(kSnapshotMagic);
  PutU64(&out, epoch);
  PutString(&out, catalog.Serialize());
  PutU64(&out, Checksum64(out));
  return out;
}

struct DecodedSnapshot {
  StatsCatalog catalog;
  uint64_t epoch = 0;
  int64_t entries = 0;
};

StatusOr<DecodedSnapshot> DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() < kSnapshotMagic.size() + 8 + 4 + 8) {
    return DataLossError("snapshot too small: %zu bytes", bytes.size());
  }
  if (bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    return DataLossError("bad snapshot magic");
  }
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - 8, 8);
  const uint64_t actual = Checksum64(bytes.substr(0, bytes.size() - 8));
  if (stored != actual) {
    return DataLossError("snapshot checksum mismatch: stored %016llx, "
                         "computed %016llx",
                         static_cast<unsigned long long>(stored),
                         static_cast<unsigned long long>(actual));
  }
  ByteReader reader(bytes.substr(kSnapshotMagic.size(),
                                 bytes.size() - 8 - kSnapshotMagic.size()),
                    kMaxWalRecord);
  DecodedSnapshot snapshot;
  NDV_RETURN_IF_ERROR(reader.TakeU64(&snapshot.epoch));
  std::string text;
  NDV_RETURN_IF_ERROR(reader.TakeString(&text));
  NDV_RETURN_IF_ERROR(reader.ExpectEnd());
  auto catalog = StatsCatalog::DeserializeOrStatus(text);
  if (!catalog.ok()) return catalog.status();
  snapshot.entries = static_cast<int64_t>(catalog->entries().size());
  snapshot.catalog = *std::move(catalog);
  return snapshot;
}

}  // namespace

DurableCatalog::DurableCatalog(DurableCatalogOptions options)
    : options_(std::move(options)) {}

DurableCatalog::~DurableCatalog() {
  // No thread may still be appending when the destructor runs, but taking
  // the lock keeps the wal_fd_ access inside its declared capability.
  MutexLock lock(mutex_);
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

std::string DurableCatalog::PathTo(std::string_view file) const {
  std::string path = options_.dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += file;
  return path;
}

StatusOr<std::unique_ptr<DurableCatalog>> DurableCatalog::Open(
    DurableCatalogOptions options) {
  NDV_CHECK_MSG(!options.dir.empty(),
                "DurableCatalogOptions.dir must be set");
  std::unique_ptr<DurableCatalog> catalog(
      new DurableCatalog(std::move(options)));
  const auto start = std::chrono::steady_clock::now();
  NDV_RETURN_IF_ERROR(EnsureDirectory(catalog->options_.dir));
  {
    // Recovery runs single-threaded (nothing else holds the new object),
    // but Recover/OpenWalForAppend carry NDV_REQUIRES(mutex_), so honor
    // the contract rather than punching an analysis hole through it.
    MutexLock lock(catalog->mutex_);
    NDV_RETURN_IF_ERROR(catalog->Recover());
    NDV_RETURN_IF_ERROR(catalog->OpenWalForAppend());
    catalog->recovery_.epoch = catalog->epoch_;
  }
  catalog->recovery_.boot_millis =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return catalog;
}

Status DurableCatalog::Recover() {
  // 1. Newest snapshot, falling back to the kept previous one. A missing
  //    primary on a fresh directory is not a fallback; an unreadable or
  //    corrupt primary with a usable previous is.
  const std::string primary = PathTo(kSnapshotFile);
  const std::string previous = PathTo(kSnapshotPrevFile);
  bool primary_present = FileExists(primary);
  for (const std::string* path : {&primary, &previous}) {
    auto bytes = ReadFileOrStatus(*path);
    if (!bytes.ok()) continue;
    auto snapshot = DecodeSnapshot(*bytes);
    if (!snapshot.ok()) continue;
    state_ = std::move(snapshot->catalog);
    epoch_ = snapshot->epoch;
    recovery_.snapshot_entries = snapshot->entries;
    recovery_.used_fallback_snapshot = path == &previous && primary_present;
    break;
  }

  // 2. Replay the rotated log first (epoch filtering makes it a no-op
  //    unless the snapshot fallback fired), then the live log, repairing
  //    its tail so the next append lands after the last valid record.
  NDV_RETURN_IF_ERROR(ReplayWal(PathTo(kWalPrevFile), /*repair=*/false));
  NDV_RETURN_IF_ERROR(ReplayWal(PathTo(kWalFile), /*repair=*/true));
  return Status::Ok();
}

Status DurableCatalog::ReplayWal(const std::string& path, bool repair) {
  auto bytes_or = ReadFileOrStatus(path);
  if (!bytes_or.ok()) {
    if (bytes_or.status().code() == StatusCode::kNotFound) {
      return Status::Ok();  // No log segment: nothing to replay.
    }
    return bytes_or.status();
  }
  const std::string& bytes = *bytes_or;

  // Exact-prefix scan: `valid_end` advances past each fully-validated,
  // fully-applied record; the first framing, checksum, decode, or epoch
  // failure stops the scan and everything after `valid_end` is discarded.
  size_t valid_end = 0;
  if (bytes.size() >= kWalMagic.size() &&
      std::string_view(bytes).substr(0, kWalMagic.size()) == kWalMagic) {
    valid_end = kWalMagic.size();
  }
  uint64_t gap_epoch = 0;
  bool epoch_gap = false;
  ByteReader log(std::string_view(bytes).substr(valid_end), kMaxWalRecord);
  uint32_t length = 0;
  uint64_t stored = 0;
  std::string_view payload;
  // A garbage length or a torn tail fails the cursor and ends the scan.
  while (valid_end > 0 && log.TakeU32(&length).ok() &&
         log.TakeU64(&stored).ok() && log.TakeView(length, &payload).ok()) {
    if (Checksum64(payload) != stored) break;  // Torn or flipped bytes.

    ByteReader reader(payload, kMaxWalRecord);
    uint8_t kind_byte = 0;
    uint64_t record_epoch = 0;
    StatsCatalog replacement;
    ColumnStats put_stats;
    bool decoded = reader.TakeU8(&kind_byte).ok() &&
                   reader.TakeU64(&record_epoch).ok();
    bool is_put = false;
    if (decoded && kind_byte == static_cast<uint8_t>(RecordKind::kPut)) {
      decoded = TakeColumnStats(&reader, &put_stats).ok() &&
                reader.ExpectEnd().ok();
      is_put = true;
    } else if (decoded &&
               kind_byte == static_cast<uint8_t>(RecordKind::kPublish)) {
      uint32_t count = 0;
      decoded = reader.TakeU32(&count).ok();
      for (uint32_t i = 0; decoded && i < count; ++i) {
        ColumnStats stats;
        decoded = TakeColumnStats(&reader, &stats).ok();
        if (decoded) replacement.Put(std::move(stats));
      }
      decoded = decoded && reader.ExpectEnd().ok();
    } else {
      decoded = false;  // Unknown record kind.
    }
    if (!decoded) break;

    if (record_epoch <= epoch_) {
      // Already covered by the snapshot (or the rotated log's overlap
      // with it); skipping keeps replay idempotent across interrupted
      // compactions.
      ++recovery_.skipped_records;
    } else if (record_epoch == epoch_ + 1) {
      if (is_put) {
        state_.Put(std::move(put_stats));
      } else {
        state_ = std::move(replacement);
      }
      epoch_ = record_epoch;
      ++recovery_.replayed_records;
    } else {
      // Epoch gap: the record is fully valid (framing, checksum, body all
      // pass) but its predecessor — an earlier record or the snapshot that
      // covered it — is missing. Trust nothing after it.
      epoch_gap = true;
      gap_epoch = record_epoch;
      break;
    }
    valid_end = bytes.size() - log.remaining();
  }

  if (epoch_gap) {
    // Unlike a torn or corrupt tail, a gap with valid framing means a whole
    // snapshot/log generation is gone (e.g. both snapshots unreadable).
    // Truncating here would permanently destroy intact records an operator
    // could still recover (say, by restoring a snapshot from backup), so
    // refuse to open instead of silently repairing.
    return DataLossError(
        "WAL %s holds a valid record at epoch %llu but recovered state is "
        "at epoch %llu: a snapshot/log generation is missing; refusing to "
        "repair — restore snapshots from backup or clear the directory",
        path.c_str(), static_cast<unsigned long long>(gap_epoch),
        static_cast<unsigned long long>(epoch_));
  }

  const int64_t discarded = static_cast<int64_t>(bytes.size() - valid_end);
  recovery_.truncated_bytes += discarded;
  if (repair && discarded > 0) {
    NDV_RETURN_IF_ERROR(
        TruncateFile(path, static_cast<int64_t>(valid_end)));
    NDV_CRASH_POINT("wal.repair.truncated");
    NDV_RETURN_IF_ERROR(FsyncDirOf(path));
  }
  return Status::Ok();
}

Status DurableCatalog::OpenWalForAppend() {
  const std::string path = PathTo(kWalFile);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return InternalError("open %s for append failed: %s", path.c_str(),
                         std::strerror(errno));
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < static_cast<off_t>(kWalMagic.size())) {
    // Fresh log (or one whose header write was itself torn): restart it.
    if (::ftruncate(fd, 0) < 0) {
      const Status status = InternalError("ftruncate %s failed: %s",
                                          path.c_str(), std::strerror(errno));
      ::close(fd);
      return status;
    }
    const Status written = WriteAllFd(fd, kWalMagic, "wal header");
    if (!written.ok()) {
      ::close(fd);
      return written;
    }
    NDV_CRASH_POINT("wal.create.header_written");
    const Status synced = FsyncFd(fd, path.c_str());
    if (!synced.ok()) {
      ::close(fd);
      return synced;
    }
    const Status dir_synced = FsyncDirOf(path);
    if (!dir_synced.ok()) {
      ::close(fd);
      return dir_synced;
    }
    NDV_CRASH_POINT("wal.create.synced");
  }
  wal_fd_ = fd;
  return Status::Ok();
}

Status DurableCatalog::AppendRecord(std::string payload) {
  if (wal_fd_ < 0) {
    return InternalError("WAL is not open (an earlier append or rotation "
                         "failure closed it); a successful Compact() "
                         "rebuilds the log");
  }
  if (payload.size() > kMaxWalRecord) {
    return InvalidArgumentError("WAL record of %zu bytes exceeds the %zu "
                                "byte cap",
                                payload.size(), kMaxWalRecord);
  }
  std::string frame;
  frame.reserve(kRecordHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, Checksum64(payload));
  frame += payload;

  // Pre-append boundary, so a failed append can be rolled back. A torn
  // record must never stay in front of a later append that returns OK:
  // exact-prefix replay stops at the torn record and would silently
  // discard the acknowledged one behind it.
  struct stat st;
  if (::fstat(wal_fd_, &st) < 0) {
    return InternalError("fstat wal failed: %s", std::strerror(errno));
  }
  const off_t append_start = st.st_size;

  NDV_CRASH_POINT("wal.append.start");
  // Two physical writes on purpose: a crash between them leaves a torn
  // record on disk, which is exactly the case replay's checksum must
  // catch. (A crash inside either write can tear anywhere too; the split
  // just guarantees the chaos schedule exercises a mid-record kill.)
  const size_t half = frame.size() / 2;
  Status status = WriteAllFd(
      wal_fd_, std::string_view(frame).substr(0, half),
      "wal record (first half)");
  if (status.ok()) {
    NDV_CRASH_POINT("wal.append.torn");
    status = WriteAllFd(wal_fd_, std::string_view(frame).substr(half),
                        "wal record (second half)");
  }
  if (status.ok()) {
    NDV_CRASH_POINT("wal.append.written");
    if (options_.fsync == FsyncPolicy::kEveryRecord) {
      status = FsyncFd(wal_fd_, "wal");
      if (status.ok()) NDV_CRASH_POINT("wal.append.synced");
    }
  }
  if (!status.ok()) {
    // Roll the log back to the pre-append boundary (a partial write, or a
    // record whose durability is indeterminate after a failed fsync). If
    // the rollback itself cannot be made durable, poison the fd: every
    // later append fails with a Status until Compact() rebuilds the log
    // from the in-memory state.
    if (::ftruncate(wal_fd_, append_start) != 0 ||
        !FsyncFd(wal_fd_, "wal rollback").ok()) {
      ::close(wal_fd_);
      wal_fd_ = -1;
    }
    return status;
  }
  return Status::Ok();
}

Status DurableCatalog::AppendPut(const ColumnStats& stats) {
  MutexLock lock(mutex_);
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(RecordKind::kPut));
  PutU64(&payload, epoch_ + 1);
  PutColumnStats(&payload, stats);
  NDV_RETURN_IF_ERROR(AppendRecord(std::move(payload)));
  // The record is durable (per policy): apply and acknowledge.
  state_.Put(stats);
  ++epoch_;
  ++records_since_snapshot_;
  if (options_.snapshot_every_records > 0 &&
      records_since_snapshot_ >= options_.snapshot_every_records) {
    NDV_RETURN_IF_ERROR(CompactLocked());
  }
  return Status::Ok();
}

Status DurableCatalog::AppendPublish(const StatsCatalog& catalog) {
  MutexLock lock(mutex_);
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(RecordKind::kPublish));
  PutU64(&payload, epoch_ + 1);
  PutU32(&payload, static_cast<uint32_t>(catalog.entries().size()));
  for (const ColumnStats& stats : catalog.entries()) {
    PutColumnStats(&payload, stats);
  }
  NDV_RETURN_IF_ERROR(AppendRecord(std::move(payload)));
  state_ = catalog;
  ++epoch_;
  ++records_since_snapshot_;
  if (options_.snapshot_every_records > 0 &&
      records_since_snapshot_ >= options_.snapshot_every_records) {
    NDV_RETURN_IF_ERROR(CompactLocked());
  }
  return Status::Ok();
}

Status DurableCatalog::Compact() {
  MutexLock lock(mutex_);
  return CompactLocked();
}

Status DurableCatalog::CompactLocked() {
  // Phase 1 — publish the snapshot. Until the final rename lands, readers
  // of the directory still see the old snapshot + full WAL; afterwards
  // they see the new snapshot and (possibly) a WAL whose records are all
  // at or below its epoch — which replay skips.
  const std::string primary = PathTo(kSnapshotFile);
  const std::string previous = PathTo(kSnapshotPrevFile);
  const std::string temp = primary + ".tmp";
  const std::string image = EncodeSnapshot(state_, epoch_);
  {
    const int fd = ::open(temp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return InternalError("open %s failed: %s", temp.c_str(),
                           std::strerror(errno));
    }
    Status status = WriteAllFd(fd, image, "snapshot");
    NDV_CRASH_POINT("snapshot.written");
    if (status.ok()) status = FsyncFd(fd, temp.c_str());
    ::close(fd);
    NDV_RETURN_IF_ERROR(status);
    NDV_CRASH_POINT("snapshot.synced");
  }
  if (FileExists(primary)) {
    // Keep the outgoing snapshot as the fallback generation. A crash
    // after this rename leaves no snapshot.ndv; recovery then uses the
    // previous snapshot plus the still-intact WAL.
    NDV_RETURN_IF_ERROR(RenameFile(primary, previous));
    NDV_CRASH_POINT("snapshot.prev_renamed");
  }
  NDV_RETURN_IF_ERROR(RenameFile(temp, primary));
  NDV_CRASH_POINT("snapshot.renamed");
  NDV_RETURN_IF_ERROR(FsyncDirOf(primary));
  NDV_CRASH_POINT("snapshot.dir_synced");

  // Phase 2 — rotate the WAL under the new snapshot. Any crash inside
  // this phase leaves some mix of {wal.log, wal.prev.log, wal.new} whose
  // records are all <= the snapshot epoch, so replay order and epoch
  // filtering reconstruct the same state regardless of where we died.
  if (wal_fd_ >= 0) {
    ::close(wal_fd_);
    wal_fd_ = -1;
  }
  const Status rotated = RotateWalLocked();
  if (!rotated.ok()) {
    // The append fd is already closed, but every on-disk state a failed
    // rotation can leave behind replays consistently (all its records are
    // at or below the snapshot epoch). Reopen so a transient disk error
    // here stays a recoverable Status instead of wedging every later
    // append; if the reopen fails too, Append*/Sync report the closed WAL.
    const Status reopened = OpenWalForAppend();
    (void)reopened;
    return rotated;
  }
  records_since_snapshot_ = 0;
  return OpenWalForAppend();
}

Status DurableCatalog::RotateWalLocked() {
  const std::string wal = PathTo(kWalFile);
  const std::string wal_prev = PathTo(kWalPrevFile);
  const std::string wal_new = wal + ".new";
  {
    const int fd = ::open(wal_new.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return InternalError("open %s failed: %s", wal_new.c_str(),
                           std::strerror(errno));
    }
    Status status = WriteAllFd(fd, kWalMagic, "rotated wal header");
    if (status.ok()) status = FsyncFd(fd, wal_new.c_str());
    ::close(fd);
    NDV_RETURN_IF_ERROR(status);
    NDV_CRASH_POINT("wal.rotate.created");
  }
  NDV_RETURN_IF_ERROR(RenameFile(wal, wal_prev));
  NDV_CRASH_POINT("wal.rotate.prev_renamed");
  NDV_RETURN_IF_ERROR(RenameFile(wal_new, wal));
  NDV_CRASH_POINT("wal.rotate.renamed");
  NDV_RETURN_IF_ERROR(FsyncDirOf(wal));
  NDV_CRASH_POINT("wal.rotate.dir_synced");
  return Status::Ok();
}

Status DurableCatalog::Sync() {
  MutexLock lock(mutex_);
  if (wal_fd_ < 0) {
    return InternalError("WAL is not open (an earlier append or rotation "
                         "failure closed it); a successful Compact() "
                         "rebuilds the log");
  }
  return FsyncFd(wal_fd_, "wal");
}

}  // namespace ndv
