#include "catalog/durable_catalog.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/byte_codec.h"
#include "common/check.h"
#include "common/crash_point.h"
#include "common/file_io.h"
#include "common/simd_hash.h"

namespace ndv {
namespace {

// Every version's magic is its stem plus the version digit; a stem with
// another digit is refused by name (CheckDurableVersion).
constexpr std::string_view kWalStem = "NDVWAL";
constexpr std::string_view kSnapshotStem = "NDVSNAP";
constexpr char kVersionDigit = '2';
constexpr std::string_view kWalMagic = "NDVWAL2\n";
constexpr std::string_view kSnapshotMagic = "NDVSNAP2";
// u32 payload length + u64 payload checksum.
constexpr size_t kRecordHeaderBytes = 12;
// A single record above this is rejected as corrupt before any allocation
// happens off its length field (the WAL analogue of kMaxFramePayload).
constexpr size_t kMaxWalRecord = size_t{1} << 26;  // 64 MiB

// Frames a payload: u32 length | u64 Crc64Nvme(payload) | payload.
std::string FrameRecord(std::string_view payload) {
  std::string frame;
  frame.reserve(kRecordHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, Crc64Nvme(payload));
  frame += payload;
  return frame;
}

}  // namespace

std::string EncodePutRecord(uint64_t epoch, const ColumnStats& stats) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(DurableRecordKind::kPut));
  PutU64(&payload, epoch);
  PutColumnStats(&payload, stats);
  return FrameRecord(payload);
}

std::string EncodePublishRecord(uint64_t epoch,
                                const StatsCatalog& catalog) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(DurableRecordKind::kPublish));
  PutU64(&payload, epoch);
  PutU32(&payload, static_cast<uint32_t>(catalog.entries().size()));
  for (const ColumnStats& stats : catalog.entries()) {
    PutColumnStats(&payload, stats);
  }
  return FrameRecord(payload);
}

Status TakeDurableRecord(ByteReader* frames, DurableRecord* record) {
  uint32_t length = 0;
  uint64_t stored = 0;
  std::string_view payload;
  // A garbage length or a torn tail fails the cursor here.
  NDV_RETURN_IF_ERROR(frames->TakeU32(&length));
  NDV_RETURN_IF_ERROR(frames->TakeU64(&stored));
  NDV_RETURN_IF_ERROR(frames->TakeView(length, &payload));
  const uint64_t actual = Crc64Nvme(payload);
  if (actual != stored) {
    return DataLossError("record checksum mismatch: stored %016llx, "
                         "computed %016llx",
                         static_cast<unsigned long long>(stored),
                         static_cast<unsigned long long>(actual));
  }
  ByteReader reader(payload, kMaxWalRecord);
  uint8_t kind = 0;
  NDV_RETURN_IF_ERROR(reader.TakeU8(&kind));
  if (kind != static_cast<uint8_t>(DurableRecordKind::kPut) &&
      kind != static_cast<uint8_t>(DurableRecordKind::kPublish)) {
    return DataLossError("unknown record kind %u",
                         static_cast<unsigned>(kind));
  }
  record->kind = static_cast<DurableRecordKind>(kind);
  NDV_RETURN_IF_ERROR(reader.TakeU64(&record->epoch));
  record->body = payload.substr(payload.size() - reader.remaining());
  return Status::Ok();
}

Status ApplyDurableRecord(const DurableRecord& record, StatsCatalog* state) {
  ByteReader reader(record.body, kMaxWalRecord);
  if (record.kind == DurableRecordKind::kPut) {
    ColumnStats stats;
    NDV_RETURN_IF_ERROR(TakeColumnStats(&reader, &stats));
    NDV_RETURN_IF_ERROR(reader.ExpectEnd());
    state->Put(std::move(stats));
    return Status::Ok();
  }
  uint32_t count = 0;
  NDV_RETURN_IF_ERROR(reader.TakeU32(&count));
  StatsCatalog replacement;
  for (uint32_t i = 0; i < count; ++i) {
    ColumnStats stats;
    NDV_RETURN_IF_ERROR(TakeColumnStats(&reader, &stats));
    replacement.Put(std::move(stats));
  }
  NDV_RETURN_IF_ERROR(reader.ExpectEnd());
  // A catalog holds one entry per column, so its image never repeats one.
  if (replacement.entries().size() != count) {
    return DataLossError("PUBLISH record names a column twice");
  }
  *state = std::move(replacement);
  return Status::Ok();
}

std::string EncodeSnapshot(const StatsCatalog& catalog, uint64_t epoch) {
  return std::string(kSnapshotMagic) + EncodePublishRecord(epoch, catalog);
}

StatusOr<DecodedSnapshot> DecodeSnapshot(std::string_view image) {
  if (!image.starts_with(kSnapshotMagic)) {
    return DataLossError("bad snapshot magic");
  }
  ByteReader frames(image.substr(kSnapshotMagic.size()), kMaxWalRecord);
  DurableRecord record;
  NDV_RETURN_IF_ERROR(TakeDurableRecord(&frames, &record));
  NDV_RETURN_IF_ERROR(frames.ExpectEnd());
  if (record.kind != DurableRecordKind::kPublish) {
    return DataLossError("snapshot holds a PUT record, not a PUBLISH");
  }
  DecodedSnapshot snapshot;
  snapshot.epoch = record.epoch;
  NDV_RETURN_IF_ERROR(ApplyDurableRecord(record, &snapshot.catalog));
  return snapshot;
}

Status CheckDurableVersion(std::string_view image, std::string_view file) {
  for (const std::string_view stem : {kWalStem, kSnapshotStem}) {
    if (image.size() <= stem.size() || !image.starts_with(stem)) continue;
    const char digit = image[stem.size()];
    if (std::isdigit(static_cast<unsigned char>(digit)) &&
        digit != kVersionDigit) {
      return InvalidArgumentError(
          "durable catalog v%c is unsupported; %.*s holds a v%c image: move "
          "the directory aside and publish into an empty one",
          digit, static_cast<int>(file.size()), file.data(), digit);
    }
  }
  return Status::Ok();
}

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
  // 1. Read every file and refuse another version's before anything in
  //    the directory is decoded, truncated, renamed or written. An
  //    unreadable snapshot is only unusable (the fallback covers it); an
  //    unreadable log is an environmental error.
  struct File {
    std::string path;
    bool is_log;
    std::string bytes;  // empty when the file is absent or unreadable
  };
  File files[] = {{PathTo(kSnapshotFile), /*is_log=*/false, {}},
                  {PathTo(kSnapshotPrevFile), /*is_log=*/false, {}},
                  {PathTo(kWalPrevFile), /*is_log=*/true, {}},
                  {PathTo(kWalFile), /*is_log=*/true, {}}};
  for (File& file : files) {
    auto read = ReadFileOrStatus(file.path);
    if (read.ok()) {
      file.bytes = *std::move(read);
    } else if (file.is_log &&
               read.status().code() != StatusCode::kNotFound) {
      return read.status();
    }
    NDV_RETURN_IF_ERROR(CheckDurableVersion(file.bytes, file.path));
  }
  const auto& [primary, previous, wal_prev, wal] = files;

  // 2. Newest snapshot, falling back to the kept previous one. A missing
  //    primary on a fresh directory is not a fallback; an unreadable or
  //    corrupt primary with a usable previous is.
  for (const File* snapshot_file : {&primary, &previous}) {
    auto snapshot = DecodeSnapshot(snapshot_file->bytes);
    if (!snapshot.ok()) continue;
    recovery_.snapshot_entries =
        static_cast<int64_t>(snapshot->catalog.entries().size());
    state_ = std::move(snapshot->catalog);
    epoch_ = snapshot->epoch;
    recovery_.used_fallback_snapshot =
        snapshot_file == &previous && FileExists(primary.path);
    break;
  }

  // 3. Replay the rotated log first (epoch filtering makes it a no-op
  //    unless the snapshot fallback fired), then the live log, repairing
  //    its tail so the next append lands after the last valid record.
  NDV_RETURN_IF_ERROR(
      ReplayWal(wal_prev.path, wal_prev.bytes, /*repair=*/false));
  NDV_RETURN_IF_ERROR(ReplayWal(wal.path, wal.bytes, /*repair=*/true));
  return Status::Ok();
}

Status DurableCatalog::ReplayWal(const std::string& path,
                                 std::string_view bytes, bool repair) {
  // Exact-prefix scan: `valid_end` advances past each fully-validated,
  // fully-applied (or skipped) record; the first framing, checksum,
  // decode, or epoch failure stops the scan and everything after
  // `valid_end` is discarded.
  size_t valid_end = 0;
  if (bytes.starts_with(kWalMagic)) {
    valid_end = kWalMagic.size();
  } else if (bytes.size() > kWalMagic.size()) {
    // A header that is neither this version's nor another's (Open refused
    // those). With no valid frame anywhere behind it the log is garbage or
    // a torn creation and restarts empty. A valid frame at any byte offset
    // means the damage hit the header (and perhaps the records next to
    // it), and truncating would destroy intact records. Most offsets fail
    // on the length field alone, so the scan costs about one pass.
    for (size_t at = kWalMagic.size(); at < bytes.size(); ++at) {
      ByteReader frames(bytes.substr(at), kMaxWalRecord);
      DurableRecord record;
      if (TakeDurableRecord(&frames, &record).ok()) {
        return DataLossError(
            "WAL %s has a damaged header in front of a valid record at "
            "byte %zu (epoch %llu); refusing to repair — restore the "
            "header or clear the directory",
            path.c_str(), at, static_cast<unsigned long long>(record.epoch));
      }
    }
  }
  uint64_t gap_epoch = 0;
  bool epoch_gap = false;
  ByteReader log(bytes.substr(valid_end), kMaxWalRecord);
  DurableRecord record;
  while (valid_end > 0 && TakeDurableRecord(&log, &record).ok()) {
    if (record.epoch <= epoch_) {
      // Already covered by the snapshot (or the rotated log's overlap
      // with it); skipping keeps replay idempotent across interrupted
      // compactions. The record passed its CRC, so its body is what was
      // written; it is not decoded.
      ++recovery_.skipped_records;
    } else if (record.epoch == epoch_ + 1) {
      if (!ApplyDurableRecord(record, &state_).ok()) break;
      epoch_ = record.epoch;
      ++recovery_.replayed_records;
    } else {
      // Epoch gap: the record is fully valid (framing, checksum, kind)
      // but its predecessor — an earlier record or the snapshot that
      // covered it — is missing. Trust nothing after it.
      epoch_gap = true;
      gap_epoch = record.epoch;
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

Status DurableCatalog::AppendRecord(std::string_view frame) {
  if (wal_fd_ < 0) {
    return InternalError("WAL is not open (an earlier append or rotation "
                         "failure closed it); a successful Compact() "
                         "rebuilds the log");
  }
  if (frame.size() - kRecordHeaderBytes > kMaxWalRecord) {
    return InvalidArgumentError("WAL record of %zu bytes exceeds the %zu "
                                "byte cap",
                                frame.size() - kRecordHeaderBytes,
                                kMaxWalRecord);
  }

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
      wal_fd_, frame.substr(0, half),
      "wal record (first half)");
  if (status.ok()) {
    NDV_CRASH_POINT("wal.append.torn");
    status = WriteAllFd(wal_fd_, frame.substr(half),
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
  NDV_RETURN_IF_ERROR(AppendRecord(EncodePutRecord(epoch_ + 1, stats)));
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
  NDV_RETURN_IF_ERROR(
      AppendRecord(EncodePublishRecord(epoch_ + 1, catalog)));
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
