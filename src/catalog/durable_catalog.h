#ifndef NDV_CATALOG_DURABLE_CATALOG_H_
#define NDV_CATALOG_DURABLE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "catalog/stats_catalog.h"
#include "common/byte_codec.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace ndv {

// Crash-safe persistence under the catalog (DESIGN.md §14): every Put and
// every epoch publication is journaled to an append-only write-ahead log
// before it is acknowledged, and the log is periodically compacted into a
// snapshot replaced by atomic rename. After a crash at ANY instruction,
// Open() recovers a catalog that is bit-identical to the last
// acknowledged state: no acknowledged record is lost, no partial record is
// applied.
//
// On-disk layout inside `dir`:
//   snapshot.ndv       newest compacted state: "NDVSNAP2" followed by
//                      exactly one PUBLISH record carrying the whole
//                      catalog at the snapshot epoch; replaced only by
//                      write-temp + fsync + rename.
//   snapshot.prev.ndv  the previous snapshot, kept until the next
//                      compaction succeeds (fallback if snapshot.ndv is
//                      unreadable).
//   wal.log            records appended since the newest snapshot
//                      ("NDVWAL2\n" header, then records).
//   wal.prev.log       the pre-compaction log, kept one rotation (replay
//                      of it is a no-op thanks to epoch filtering, but it
//                      backs the snapshot.prev fallback path).
//
// One record format serves the log and the snapshot (the serve-protocol
// framing discipline applied to disk): u32 payload length |
// u64 Crc64Nvme(payload) | payload, where payload = u8 kind | u64 epoch |
// body. Kinds: PUT (one PutColumnStats image) and PUBLISH (whole-catalog
// replacement: u32 count + one PutColumnStats image each). Records are
// written and read with the common/byte_codec.h codec the serve wire
// uses, so a durable ColumnStats is byte for byte the one in a STATS
// reply. Serialize() text is a human-readable dump; nothing reads it back.
//
// Version rule: a file whose magic is another version's ("NDVWAL<d>",
// "NDVSNAP<d>") makes Open() fail with InvalidArgument before anything in
// the directory is truncated, renamed or written. Old directories are
// refused, never repaired.
//
// Replay semantics are EXACT PREFIX: records are applied in order until
// the first record whose length, checksum, or body fails validation; that
// record and everything after it are discarded and the live log is
// physically truncated to the valid prefix (a torn tail from a mid-append
// crash must not sit in front of future appends). A record therefore
// either fully applies or leaves no trace. Records at or below the
// recovered snapshot epoch are skipped after their framing, checksum,
// kind and epoch pass, without decoding their bodies; this is what makes
// the compaction protocol (snapshot first, rotate the log second) safe to
// interrupt anywhere: replaying the old log onto the new snapshot is a
// filtered no-op. One break is NOT repaired: a record with valid framing
// whose epoch skips ahead of the recovered state means a whole
// snapshot/log generation is missing, and Open() fails with kDataLoss
// rather than truncating intact records (see Open()).
//
// Acknowledgment contract: with FsyncPolicy::kEveryRecord an Append*
// call that returns OK has fsynced the record — the caller may
// acknowledge it to a client, and recovery WILL reproduce it. With
// kNone, durability is best-effort until Sync()/Compact() (the knob for
// bulk loads where the tail is re-derivable). An Append* that returns an
// error leaves no trace: the partial (or durability-indeterminate)
// record is rolled back off the log, and if even the rollback fails the
// log is closed — later appends fail with a Status (never an abort)
// until a successful Compact() rebuilds it from the in-memory state.
enum class FsyncPolicy {
  kEveryRecord,  // fsync the WAL before acknowledging each append
  kNone,         // leave flushing to the kernel; Sync()/Compact() to force
};

struct DurableCatalogOptions {
  std::string dir;  // created if missing (one level)
  FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
  // Compact (snapshot + rotate the WAL) automatically after this many
  // appended records. <= 0 disables auto-compaction (explicit Compact()
  // only).
  int64_t snapshot_every_records = 1024;
};

// What recovery found and did, for operator visibility and tests.
struct RecoveryInfo {
  uint64_t epoch = 0;             // recovered epoch (0 = fresh directory)
  int64_t snapshot_entries = -1;  // -1 = no usable snapshot
  bool used_fallback_snapshot = false;  // snapshot.prev.ndv answered
  int64_t replayed_records = 0;   // WAL records applied on top
  int64_t skipped_records = 0;    // records at/below the snapshot epoch
  int64_t truncated_bytes = 0;    // torn/corrupt tail bytes discarded
  double boot_millis = 0.0;       // wall clock of Open(): load + replay
};

// ---- The record codec: the one encoding of the WAL and the snapshot,
// declared here so the fuzz target and the tests drive the decoder
// recovery runs.

enum class DurableRecordKind : uint8_t {
  kPut = 1,      // one ColumnStats upsert
  kPublish = 2,  // whole-catalog replacement
};

// One framed record (u32 payload length | u64 Crc64Nvme(payload) |
// u8 kind | u64 epoch | body).
std::string EncodePutRecord(uint64_t epoch, const ColumnStats& stats);
std::string EncodePublishRecord(uint64_t epoch, const StatsCatalog& catalog);

struct DurableRecord {
  DurableRecordKind kind = DurableRecordKind::kPut;
  uint64_t epoch = 0;
  std::string_view body;  // aliases the input; ApplyDurableRecord decodes it
};

// Takes one frame off `frames` and checks its length, CRC, kind byte and
// epoch field. The body is left undecoded, so replay pays nothing for a
// record it skips.
Status TakeDurableRecord(ByteReader* frames, DurableRecord* record);

// Decodes `record`'s body exactly and applies it: a PUT upserts its
// ColumnStats, a PUBLISH replaces the whole catalog (a PUBLISH naming a
// column twice is corrupt). On error `state` is untouched.
Status ApplyDurableRecord(const DurableRecord& record, StatsCatalog* state);

// A snapshot image: "NDVSNAP2" followed by exactly one PUBLISH record.
std::string EncodeSnapshot(const StatsCatalog& catalog, uint64_t epoch);
struct DecodedSnapshot {
  StatsCatalog catalog;
  uint64_t epoch = 0;
};
StatusOr<DecodedSnapshot> DecodeSnapshot(std::string_view image);

// The version rule: InvalidArgument when `image` starts with another
// version's WAL or snapshot magic. `file` names it in the message.
Status CheckDurableVersion(std::string_view image, std::string_view file);

class DurableCatalog {
 public:
  // Opens (creating if needed) the durable catalog in options.dir and
  // recovers: snapshot load (with fallback), WAL replay, tail repair.
  // Fails on environmental errors (unwritable directory, I/O errors) —
  // torn and corrupt data is recovered around, never fatal — and on two
  // data conditions. A file of another format version is InvalidArgument
  // (see the file comment). A WAL record with valid framing whose epoch
  // skips ahead of the recovered state (a whole snapshot/log generation
  // is missing, e.g. both snapshots destroyed) is kDataLoss, not a
  // repair: truncating intact records would destroy data an operator
  // could still restore from backup.
  [[nodiscard]] static StatusOr<std::unique_ptr<DurableCatalog>> Open(
      DurableCatalogOptions options);

  DurableCatalog(const DurableCatalog&) = delete;
  DurableCatalog& operator=(const DurableCatalog&) = delete;
  ~DurableCatalog();

  // The recovered / current state: `state()` is the in-memory mirror the
  // WAL and snapshots agree on; epoch() counts every applied record.
  // state() returns a copy by contract — NDV_GUARDED_BY(mutex_) on state_
  // makes returning a reference a compile error under -Wthread-safety
  // (ndv-guarded-return flags it too), because the referent would race
  // with a concurrent Publish replacing the catalog wholesale. recovery()
  // is written once inside Open(), before the object is shared, and is
  // immutable after.
  StatsCatalog state() const NDV_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return state_;
  }
  uint64_t epoch() const NDV_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return epoch_;
  }
  const RecoveryInfo& recovery() const { return recovery_; }

  // Journals one column upsert (StatsCatalog::Put semantics) and applies
  // it to the in-memory state. OK return = durable per the fsync policy.
  [[nodiscard]] Status AppendPut(const ColumnStats& stats)
      NDV_EXCLUDES(mutex_);

  // Journals a whole-catalog replacement — the ANALYZE publication path.
  [[nodiscard]] Status AppendPublish(const StatsCatalog& catalog)
      NDV_EXCLUDES(mutex_);

  // Writes a compacted snapshot of the current state and rotates the WAL.
  // Safe to crash at any internal boundary (see file comment).
  [[nodiscard]] Status Compact() NDV_EXCLUDES(mutex_);

  // Forces the WAL to disk (meaningful under FsyncPolicy::kNone).
  [[nodiscard]] Status Sync() NDV_EXCLUDES(mutex_);

  // Records appended since the last compaction (auto-compaction gauge).
  int64_t records_since_snapshot() const NDV_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return records_since_snapshot_;
  }

  // File names inside a durable directory (shared with tools and tests).
  static constexpr std::string_view kSnapshotFile = "snapshot.ndv";
  static constexpr std::string_view kSnapshotPrevFile = "snapshot.prev.ndv";
  static constexpr std::string_view kWalFile = "wal.log";
  static constexpr std::string_view kWalPrevFile = "wal.prev.log";

 private:
  explicit DurableCatalog(DurableCatalogOptions options);

  std::string PathTo(std::string_view file) const;
  Status Recover() NDV_REQUIRES(mutex_);
  // Replays one WAL file's bytes (empty when the file is absent).
  // `repair` physically truncates `path` to the valid prefix (the live
  // log); the rotated log is left untouched.
  Status ReplayWal(const std::string& path, std::string_view bytes,
                   bool repair) NDV_REQUIRES(mutex_);
  Status AppendRecord(std::string_view frame) NDV_REQUIRES(mutex_);
  Status OpenWalForAppend() NDV_REQUIRES(mutex_);
  Status CompactLocked() NDV_REQUIRES(mutex_);
  Status RotateWalLocked() NDV_REQUIRES(mutex_);

  const DurableCatalogOptions options_;
  mutable Mutex mutex_;
  StatsCatalog state_ NDV_GUARDED_BY(mutex_);
  uint64_t epoch_ NDV_GUARDED_BY(mutex_) = 0;
  int64_t records_since_snapshot_ NDV_GUARDED_BY(mutex_) = 0;
  // Written only inside Open(), before the catalog is shared; const after.
  RecoveryInfo recovery_;
  int wal_fd_ NDV_GUARDED_BY(mutex_) = -1;
};

}  // namespace ndv

#endif  // NDV_CATALOG_DURABLE_CATALOG_H_
