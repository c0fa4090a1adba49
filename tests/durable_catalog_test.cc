// Crash-recovery tests for the durable catalog (DESIGN.md §14): WAL
// round trips, pinned record and snapshot bytes, exact-prefix replay over
// torn and corrupt tails, snapshot fallback, crash-point death tests,
// replay of the checked-in fixture store under exhaustive tail mutation,
// and refusal of the previous format's store.

#include "catalog/durable_catalog.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_codec.h"
#include "common/crash_point.h"
#include "common/file_io.h"
#include "common/random.h"
#include "common/simd_hash.h"
#include "datagen/real_world_like.h"

namespace ndv {
namespace {

std::string TestDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::system(("rm -rf " + dir).c_str());
  return dir;
}

ColumnStats MakeStats(const std::string& name, int64_t salt) {
  ColumnStats stats;
  stats.column_name = name;
  stats.table_rows = 1000 + salt;
  stats.sample_rows = 100 + salt % 37;
  stats.sample_distinct = 10 + salt % 90;
  stats.estimate = 50.5 + static_cast<double>(salt);
  stats.lower = static_cast<double>(stats.sample_distinct);
  stats.upper = 400.0 + static_cast<double>(salt) * 2.0;
  stats.method = salt % 2 == 0 ? "AE" : "GEE";
  stats.coverage = salt % 3 == 0 ? 1.0 : 0.5;
  stats.degraded = salt % 3 != 0;
  return stats;
}

// Every ColumnStats field set to a distinct value; the name carries the
// text catalog's escape characters, which the binary codec passes verbatim.
ColumnStats GoldenStats() {
  ColumnStats stats;
  stats.column_name = "orders|id%2";
  stats.table_rows = 123456789012;
  stats.sample_rows = 1234567;
  stats.sample_distinct = 654321;
  stats.estimate = 987654.25;
  stats.lower = 654321.0;
  stats.upper = 1.5e7;
  stats.method = "AE";
  stats.coverage = 0.875;
  stats.degraded = true;
  return stats;
}

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out += kDigits[static_cast<unsigned char>(c) >> 4];
    out += kDigits[static_cast<unsigned char>(c) & 0xf];
  }
  return out;
}

// wal.log after the 8-byte magic, following one AppendPut(GoldenStats())
// into a fresh directory: record header (u32 length, u64 CRC-64/NVME)
// and the Put payload. Logs on disk hold these bytes; any change here
// breaks their replay.
constexpr std::string_view kGoldenPutRecordHex =
    "5700000063561037268ef46f0101000000000000000b0000006f72646572737c"
    "69642532141a99be1c00000087d6120000000000f1fb09000000000000000080"
    "0c242e4100000000e2f7234100000000389c6c41000000000000ec3f01020000"
    "004145";

// snapshot.ndv after that Put and a Compact(): "NDVSNAP2" and one PUBLISH
// record (epoch 1, count 1, the same ColumnStats image).
constexpr std::string_view kGoldenSnapshotHex =
    "4e4456534e4150325b0000007d7d1a338787c35d020100000000000000010000"
    "000b0000006f72646572737c69642532141a99be1c00000087d6120000000000"
    "f1fb090000000000000000800c242e4100000000e2f7234100000000389c6c41"
    "000000000000ec3f01020000004145";

std::unique_ptr<DurableCatalog> OpenOrDie(DurableCatalogOptions options) {
  auto opened = DurableCatalog::Open(std::move(options));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(*opened);  // aborts with the status if !ok
}

// Appends `count` Puts, recording the model serialization after each
// epoch so tests can check bit-identity at ANY recovered epoch.
// Returns [e] = serialized state after epoch e+1.
std::vector<std::string> AppendPuts(DurableCatalog* durable, int count,
                                    StatsCatalog* model) {
  std::vector<std::string> serialized_at;
  for (int i = 0; i < count; ++i) {
    const ColumnStats stats =
        MakeStats("col" + std::to_string(i % 3), 100 + i);
    const Status appended = durable->AppendPut(stats);
    if (!appended.ok()) {
      ADD_FAILURE() << appended.ToString();
      return serialized_at;
    }
    model->Put(stats);
    serialized_at.push_back(model->Serialize());
  }
  return serialized_at;
}

TEST(DurableCatalogTest, FreshDirectoryStartsEmpty) {
  auto durable = OpenOrDie({.dir = TestDir("durable_fresh")});
  EXPECT_EQ(durable->epoch(), 0u);
  EXPECT_TRUE(durable->state().empty());
  EXPECT_EQ(durable->recovery().snapshot_entries, -1);
  EXPECT_EQ(durable->recovery().replayed_records, 0);
  EXPECT_EQ(durable->recovery().truncated_bytes, 0);
  EXPECT_FALSE(durable->recovery().used_fallback_snapshot);
  EXPECT_GE(durable->recovery().boot_millis, 0.0);
}

TEST(DurableCatalogTest, PutAndPublishSurviveReopen) {
  const std::string dir = TestDir("durable_roundtrip");
  StatsCatalog model;
  {
    auto durable = OpenOrDie({.dir = dir});
    ASSERT_TRUE(durable->AppendPut(MakeStats("a", 1)).ok());
    ASSERT_TRUE(durable->AppendPut(MakeStats("b", 2)).ok());
    StatsCatalog replacement;
    replacement.Put(MakeStats("c", 3));
    ASSERT_TRUE(durable->AppendPublish(replacement).ok());
    ASSERT_TRUE(durable->AppendPut(MakeStats("d", 4)).ok());
    model = durable->state();
    EXPECT_EQ(durable->epoch(), 4u);
  }
  auto durable = OpenOrDie({.dir = dir});
  EXPECT_EQ(durable->epoch(), 4u);
  EXPECT_EQ(durable->recovery().replayed_records, 4);
  EXPECT_EQ(durable->state().Serialize(), model.Serialize());
  // Publish replaced the catalog wholesale: a and b are gone.
  EXPECT_FALSE(durable->state().Find("a").has_value());
  EXPECT_TRUE(durable->state().Find("c").has_value());
}

TEST(DurableCatalogTest, CompactionSnapshotsAndEpochFilteredReplay) {
  const std::string dir = TestDir("durable_compact");
  StatsCatalog model;
  {
    auto durable = OpenOrDie({.dir = dir, .snapshot_every_records = 4});
    AppendPuts(durable.get(), 10, &model);
    EXPECT_EQ(durable->epoch(), 10u);
    // 10 appends at a cadence of 4: compactions at epochs 4 and 8, so 2
    // records sit in the live WAL.
    EXPECT_EQ(durable->records_since_snapshot(), 2);
  }
  auto durable = OpenOrDie({.dir = dir, .snapshot_every_records = 4});
  EXPECT_EQ(durable->epoch(), 10u);
  EXPECT_GE(durable->recovery().snapshot_entries, 0);
  EXPECT_EQ(durable->recovery().replayed_records, 2);
  // The rotated log's records (5..8) are all at or below the snapshot
  // epoch, so replay skips them.
  EXPECT_EQ(durable->recovery().skipped_records, 4);
  EXPECT_EQ(durable->state().Serialize(), model.Serialize());
}

TEST(DurableCatalogTest, EveryByteTruncationOfWalRecoversExactPrefix) {
  const std::string dir = TestDir("durable_truncate_src");
  StatsCatalog model;
  std::vector<std::string> serialized_at;
  {
    // No compaction: the WAL holds the whole history.
    auto durable = OpenOrDie({.dir = dir, .snapshot_every_records = 0});
    serialized_at = AppendPuts(durable.get(), 6, &model);
  }
  ASSERT_EQ(serialized_at.size(), 6u);
  const std::string wal_path =
      dir + "/" + std::string(DurableCatalog::kWalFile);
  auto wal_bytes = ReadFileOrStatus(wal_path);
  ASSERT_TRUE(wal_bytes.ok());

  // Chop the log at EVERY byte offset from just past the header to one
  // byte short of full. Each cut must recover cleanly to the exact
  // prefix of fully-valid records, bit-identical to the model there.
  const std::string work = TestDir("durable_truncate_work");
  for (size_t cut = 8; cut < wal_bytes->size(); ++cut) {
    std::system(("rm -rf " + work).c_str());
    ASSERT_TRUE(EnsureDirectory(work).ok());
    ASSERT_TRUE(
        AtomicWriteFile(work + "/" + std::string(DurableCatalog::kWalFile),
                        std::string_view(*wal_bytes).substr(0, cut),
                        /*sync=*/false)
            .ok());
    auto recovered =
        DurableCatalog::Open({.dir = work, .snapshot_every_records = 0});
    ASSERT_TRUE(recovered.ok())
        << "cut at byte " << cut << ": " << recovered.status().ToString();
    const uint64_t epoch = (*recovered)->epoch();
    ASSERT_LE(epoch, 6u) << "cut at byte " << cut;
    const std::string expected =
        epoch == 0 ? StatsCatalog().Serialize() : serialized_at[epoch - 1];
    EXPECT_EQ((*recovered)->state().Serialize(), expected)
        << "cut at byte " << cut;
    // The torn tail is physically gone: a reopen replays the same prefix
    // with nothing left to truncate.
    const int64_t truncated = (*recovered)->recovery().truncated_bytes;
    recovered->reset();
    auto reopened =
        DurableCatalog::Open({.dir = work, .snapshot_every_records = 0});
    ASSERT_TRUE(reopened.ok()) << "cut at byte " << cut;
    EXPECT_EQ((*reopened)->epoch(), epoch) << "cut at byte " << cut;
    EXPECT_EQ((*reopened)->recovery().truncated_bytes, 0)
        << "cut at byte " << cut << " (first open truncated " << truncated
        << ")";
  }
}

TEST(DurableCatalogTest, CorruptMiddleRecordDiscardsSuffixButStoreWorks) {
  const std::string dir = TestDir("durable_corrupt");
  StatsCatalog model;
  std::vector<std::string> serialized_at;
  {
    auto durable = OpenOrDie({.dir = dir, .snapshot_every_records = 0});
    serialized_at = AppendPuts(durable.get(), 5, &model);
  }
  ASSERT_EQ(serialized_at.size(), 5u);
  const std::string wal_path =
      dir + "/" + std::string(DurableCatalog::kWalFile);
  auto wal_bytes = ReadFileOrStatus(wal_path);
  ASSERT_TRUE(wal_bytes.ok());
  // Flip one byte around 40% into the log: some record in the middle
  // fails its checksum, and everything after it — valid or not — must be
  // discarded (exact prefix, no resynchronization).
  std::string corrupt = *wal_bytes;
  const size_t flip = corrupt.size() * 2 / 5;
  corrupt[flip] = static_cast<char>(corrupt[flip] ^ 0x01);
  ASSERT_TRUE(AtomicWriteFile(wal_path, corrupt, /*sync=*/false).ok());

  auto recovered =
      DurableCatalog::Open({.dir = dir, .snapshot_every_records = 0});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const uint64_t epoch = (*recovered)->epoch();
  EXPECT_LT(epoch, 5u);
  EXPECT_GT((*recovered)->recovery().truncated_bytes, 0);
  const std::string expected =
      epoch == 0 ? StatsCatalog().Serialize() : serialized_at[epoch - 1];
  EXPECT_EQ((*recovered)->state().Serialize(), expected);

  // The repaired store accepts new appends and reopens to them.
  ASSERT_TRUE((*recovered)->AppendPut(MakeStats("post", 99)).ok());
  const uint64_t final_epoch = (*recovered)->epoch();
  const std::string final_state = (*recovered)->state().Serialize();
  recovered->reset();
  auto reopened =
      DurableCatalog::Open({.dir = dir, .snapshot_every_records = 0});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->epoch(), final_epoch);
  EXPECT_EQ((*reopened)->state().Serialize(), final_state);
}

TEST(DurableCatalogTest, CorruptPrimarySnapshotFallsBackWithoutDataLoss) {
  const std::string dir = TestDir("durable_fallback");
  StatsCatalog model;
  {
    auto durable = OpenOrDie({.dir = dir, .snapshot_every_records = 4});
    AppendPuts(durable.get(), 10, &model);
  }
  // Corrupt the newest snapshot (epoch 8). Recovery must fall back to
  // snapshot.prev.ndv (epoch 4) and rebuild epochs 5..10 from the rotated
  // and live WALs.
  const std::string snapshot_path =
      dir + "/" + std::string(DurableCatalog::kSnapshotFile);
  auto snapshot_bytes = ReadFileOrStatus(snapshot_path);
  ASSERT_TRUE(snapshot_bytes.ok());
  std::string corrupt = *snapshot_bytes;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x40);
  ASSERT_TRUE(AtomicWriteFile(snapshot_path, corrupt, /*sync=*/false).ok());

  auto recovered =
      DurableCatalog::Open({.dir = dir, .snapshot_every_records = 4});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery().used_fallback_snapshot);
  EXPECT_EQ((*recovered)->epoch(), 10u);
  EXPECT_EQ((*recovered)->recovery().replayed_records, 6);
  EXPECT_EQ((*recovered)->state().Serialize(), model.Serialize());
}

TEST(DurableCatalogTest, EpochGapRefusesRepairAndPreservesIntactLogs) {
  const std::string dir = TestDir("durable_gap");
  StatsCatalog model;
  {
    auto durable = OpenOrDie({.dir = dir, .snapshot_every_records = 4});
    AppendPuts(durable.get(), 10, &model);
  }
  // Destroy BOTH snapshot generations (external corruption; no crash
  // schedule produces this). wal.prev.log then starts at epoch 5 with
  // nothing before it: valid framing, but a whole generation is missing.
  const std::string primary =
      dir + "/" + std::string(DurableCatalog::kSnapshotFile);
  auto pristine = ReadFileOrStatus(primary);
  ASSERT_TRUE(pristine.ok());
  for (const std::string_view name :
       {DurableCatalog::kSnapshotFile, DurableCatalog::kSnapshotPrevFile}) {
    const std::string path = dir + "/" + std::string(name);
    auto bytes = ReadFileOrStatus(path);
    ASSERT_TRUE(bytes.ok());
    std::string corrupt = *bytes;
    corrupt[corrupt.size() / 2] =
        static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x20);
    ASSERT_TRUE(AtomicWriteFile(path, corrupt, /*sync=*/false).ok());
  }
  const std::string wal_path =
      dir + "/" + std::string(DurableCatalog::kWalFile);
  auto wal_before = ReadFileOrStatus(wal_path);
  ASSERT_TRUE(wal_before.ok());

  // Open must refuse — truncating the intact logs would permanently
  // destroy records an operator could still recover.
  auto failed =
      DurableCatalog::Open({.dir = dir, .snapshot_every_records = 4});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
  auto wal_after = ReadFileOrStatus(wal_path);
  ASSERT_TRUE(wal_after.ok());
  EXPECT_EQ(*wal_after, *wal_before);

  // Restoring the snapshot "from backup" recovers the complete state.
  ASSERT_TRUE(AtomicWriteFile(primary, *pristine, /*sync=*/false).ok());
  auto recovered =
      DurableCatalog::Open({.dir = dir, .snapshot_every_records = 4});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->epoch(), 10u);
  EXPECT_EQ((*recovered)->state().Serialize(), model.Serialize());
}

TEST(DurableCatalogTest, AccessorsAreSafeUnderConcurrentAppends) {
  auto durable = OpenOrDie({.dir = TestDir("durable_threads"),
                            .fsync = FsyncPolicy::kNone,
                            .snapshot_every_records = 8});
  // Reader thread hammers the accessors while the main thread appends
  // (and auto-compacts): epochs must be monotone and every observed
  // state a complete catalog — run under TSan this is the data-race
  // check for the locked accessors.
  std::atomic<bool> done{false};
  std::thread reader([&durable, &done] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t epoch = durable->epoch();
      EXPECT_GE(epoch, last);
      last = epoch;
      const StatsCatalog snapshot = durable->state();
      EXPECT_LE(snapshot.entries().size(), 3u);  // AppendPuts cycles 3 names
      (void)durable->records_since_snapshot();
    }
  });
  StatsCatalog model;
  AppendPuts(durable.get(), 64, &model);
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(durable->epoch(), 64u);
  EXPECT_EQ(durable->state().Serialize(), model.Serialize());
}

TEST(DurableCatalogTest, FsyncNonePolicyStillRecoversAcrossCleanReopen) {
  const std::string dir = TestDir("durable_nosync");
  StatsCatalog model;
  {
    auto durable = OpenOrDie({.dir = dir,
                              .fsync = FsyncPolicy::kNone,
                              .snapshot_every_records = 0});
    AppendPuts(durable.get(), 3, &model);
    ASSERT_TRUE(durable->Sync().ok());
    ASSERT_TRUE(durable->Compact().ok());
  }
  auto durable = OpenOrDie({.dir = dir, .fsync = FsyncPolicy::kNone});
  EXPECT_EQ(durable->epoch(), 3u);
  EXPECT_EQ(durable->state().Serialize(), model.Serialize());
}

TEST(DurableCatalogTest, PutRecordEncodesToPinnedBytes) {
  const std::string dir = TestDir("durable_golden");
  {
    auto durable = OpenOrDie({.dir = dir, .snapshot_every_records = 0});
    ASSERT_TRUE(durable->AppendPut(GoldenStats()).ok());
  }
  const auto wal =
      ReadFileOrStatus(dir + "/" + std::string(DurableCatalog::kWalFile));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(wal->starts_with("NDVWAL2\n"));
  EXPECT_EQ(ToHex(std::string_view(*wal).substr(8)), kGoldenPutRecordHex);
}

TEST(DurableCatalogTest, SnapshotEncodesToPinnedBytes) {
  const std::string dir = TestDir("durable_golden_snapshot");
  {
    auto durable = OpenOrDie({.dir = dir, .snapshot_every_records = 0});
    ASSERT_TRUE(durable->AppendPut(GoldenStats()).ok());
    ASSERT_TRUE(durable->Compact().ok());
  }
  const auto snapshot = ReadFileOrStatus(
      dir + "/" + std::string(DurableCatalog::kSnapshotFile));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(ToHex(*snapshot), kGoldenSnapshotHex);
}

// A damaged header in front of intact records: one flipped bit in the
// magic, or a damaged run that also covers the first record's length and
// checksum (the later records stay intact). Open refuses instead of
// truncating them, leaves the log as it was, and restoring the bytes
// recovers the whole log.
TEST(DurableCatalogTest, DamagedWalHeaderInFrontOfValidRecordsIsRefused) {
  const std::string dir = TestDir("durable_damaged_header");
  StatsCatalog model;
  {
    auto durable = OpenOrDie({.dir = dir, .snapshot_every_records = 0});
    AppendPuts(durable.get(), 3, &model);
  }
  const std::string wal_path =
      dir + "/" + std::string(DurableCatalog::kWalFile);
  auto pristine = ReadFileOrStatus(wal_path);
  ASSERT_TRUE(pristine.ok());
  std::string flipped_bit = *pristine;
  flipped_bit[0] = static_cast<char>(flipped_bit[0] ^ 0x01);
  std::string damaged_run = *pristine;
  std::fill_n(damaged_run.begin(), 8 + 16, '\xa5');
  for (const std::string& damaged : {flipped_bit, damaged_run}) {
    SCOPED_TRACE(ToHex(damaged.substr(0, 24)));
    ASSERT_TRUE(AtomicWriteFile(wal_path, damaged, /*sync=*/false).ok());
    auto failed =
        DurableCatalog::Open({.dir = dir, .snapshot_every_records = 0});
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(failed.status().message().find(wal_path), std::string::npos)
        << failed.status().ToString();
    auto after = ReadFileOrStatus(wal_path);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, damaged);
  }

  ASSERT_TRUE(AtomicWriteFile(wal_path, *pristine, /*sync=*/false).ok());
  auto recovered =
      DurableCatalog::Open({.dir = dir, .snapshot_every_records = 0});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->epoch(), 3u);
  EXPECT_EQ((*recovered)->state().Serialize(), model.Serialize());
}

// A log shorter than its header, or a foreign header with no valid record
// behind it, holds nothing to keep: the log restarts empty.
TEST(DurableCatalogTest, WalWithNoValidRecordBehindItsHeaderRestarts) {
  const std::string one_frame = [] {
    const std::string dir = TestDir("durable_restart_src");
    StatsCatalog model;
    auto durable = OpenOrDie({.dir = dir, .snapshot_every_records = 0});
    AppendPuts(durable.get(), 1, &model);
    auto bytes = ReadFileOrStatus(dir + "/" +
                                  std::string(DurableCatalog::kWalFile));
    EXPECT_TRUE(bytes.ok());
    return bytes->substr(8);
  }();
  std::string corrupt_frame = one_frame;
  corrupt_frame.back() = static_cast<char>(corrupt_frame.back() ^ 0x40);
  for (const std::string& log :
       {std::string("NDVW"), std::string("garbage!"),
        "garbage!" + std::string(40, '\x5a'),
        "garbage!" + std::string(40, '\0'), "garbage!" + corrupt_frame}) {
    SCOPED_TRACE(ToHex(log.substr(0, 12)));
    const std::string dir = TestDir("durable_restart");
    ASSERT_TRUE(EnsureDirectory(dir).ok());
    const std::string wal_path =
        dir + "/" + std::string(DurableCatalog::kWalFile);
    ASSERT_TRUE(AtomicWriteFile(wal_path, log, /*sync=*/false).ok());
    auto recovered =
        DurableCatalog::Open({.dir = dir, .snapshot_every_records = 0});
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ((*recovered)->epoch(), 0u);
    auto after = ReadFileOrStatus(wal_path);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, "NDVWAL2\n");
  }
}

TEST(DurableCatalogTest, VersionRuleRefusesOtherDigitsOnly) {
  const std::pair<std::string_view, std::string_view> refused[] = {
      {"NDVWAL1\n", "durable catalog v1 is unsupported; f holds a v1"},
      {"NDVSNAP1", "durable catalog v1 is unsupported; f holds a v1"},
      {"NDVWAL3\n", "durable catalog v3 is unsupported; f holds a v3"}};
  for (const auto& [image, message] : refused) {
    const Status status = CheckDurableVersion(image, "f");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << image;
    EXPECT_TRUE(status.message().starts_with(message)) << status.ToString();
  }
  // The current magic, a torn header and foreign bytes are not versions.
  for (const std::string_view image :
       {"NDVWAL2\n", "NDVSNAP2", "NDVWAL", "NDVWALx", "", "garbage!"}) {
    EXPECT_TRUE(CheckDurableVersion(image, "f").ok()) << image;
  }
}

// Replay checks a record's framing, CRC, kind and epoch, and decodes its
// body only when it applies: a record at or below the snapshot epoch is
// skipped whole. Its body here is not a ColumnStats image, and replay
// still reaches the record after it.
TEST(DurableCatalogTest, SkippedRecordBodiesAreNotDecoded) {
  const std::string dir = TestDir("durable_skip_body");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  StatsCatalog snapshot_state;
  snapshot_state.Put(MakeStats("a", 1));
  ASSERT_TRUE(AtomicWriteFile(dir + "/snapshot.ndv",
                              EncodeSnapshot(snapshot_state, 2),
                              /*sync=*/false)
                  .ok());
  std::string skipped_payload;
  PutU8(&skipped_payload, static_cast<uint8_t>(DurableRecordKind::kPut));
  PutU64(&skipped_payload, 2);
  skipped_payload += "not a ColumnStats image";
  std::string wal = "NDVWAL2\n";
  PutU32(&wal, static_cast<uint32_t>(skipped_payload.size()));
  PutU64(&wal, Crc64Nvme(skipped_payload));
  wal += skipped_payload;
  wal += EncodePutRecord(3, MakeStats("b", 2));
  ASSERT_TRUE(AtomicWriteFile(dir + "/wal.log", wal, /*sync=*/false).ok());

  auto durable = OpenOrDie({.dir = dir});
  EXPECT_EQ(durable->epoch(), 3u);
  EXPECT_EQ(durable->recovery().skipped_records, 1);
  EXPECT_EQ(durable->recovery().replayed_records, 1);
  EXPECT_EQ(durable->recovery().truncated_bytes, 0);
  EXPECT_TRUE(durable->state().Find("a").has_value());
  EXPECT_TRUE(durable->state().Find("b").has_value());
}

TEST(DurableCatalogTest, OversizeRecordIsRejectedNotAppended) {
  auto durable = OpenOrDie({.dir = TestDir("durable_oversize")});
  ColumnStats stats = MakeStats("huge", 1);
  stats.column_name.assign((size_t{1} << 26) + 1, 'x');
  const Status status = durable->AppendPut(stats);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(durable->epoch(), 0u);  // Nothing acknowledged, nothing applied.
}

// ---- Round trips through the snapshot: every catalog a restart reads
// back from Compact() + reopen dumps to the same text as the one
// published, whatever its names and values.

// Publishes `catalog`, compacts, and reopens, so the state comes from the
// snapshot alone (the publish record in wal.prev.log is skipped).
StatsCatalog ReopenedFromSnapshot(const std::string& name,
                                  const StatsCatalog& catalog) {
  const std::string dir = TestDir(name);
  {
    auto durable = OpenOrDie({.dir = dir});
    EXPECT_TRUE(durable->AppendPublish(catalog).ok());
    EXPECT_TRUE(durable->Compact().ok());
  }
  auto durable = OpenOrDie({.dir = dir});
  EXPECT_EQ(durable->recovery().snapshot_entries,
            static_cast<int64_t>(catalog.entries().size()));
  EXPECT_EQ(durable->recovery().replayed_records, 0);
  return durable->state();
}

TEST(DurableCatalogRoundTripTest, NonFiniteAndSignedZeroFieldsSurvive) {
  StatsCatalog catalog;
  ColumnStats stats = MakeStats("poisoned", 1);
  stats.estimate = std::numeric_limits<double>::quiet_NaN();
  stats.upper = std::numeric_limits<double>::infinity();
  stats.lower = -std::numeric_limits<double>::infinity();
  stats.coverage = -0.0;
  catalog.Put(stats);
  const StatsCatalog back = ReopenedFromSnapshot("durable_rt_nonfinite",
                                                 catalog);
  EXPECT_EQ(back.Serialize(), catalog.Serialize());
  const std::optional<ColumnStats> found = back.Find("poisoned");
  ASSERT_TRUE(found.has_value());
  // Bit patterns, so the NaN payload and the zero's sign count too.
  for (const auto field : {&ColumnStats::estimate, &ColumnStats::lower,
                           &ColumnStats::upper, &ColumnStats::coverage}) {
    EXPECT_EQ(std::bit_cast<uint64_t>((*found).*field),
              std::bit_cast<uint64_t>(stats.*field));
  }
}

TEST(DurableCatalogRoundTripTest, AdversarialNamesAndExtremeValuesSurvive) {
  // The text dump's escape characters, line breaks, UTF-8 and the dump's
  // own header are plain bytes to the binary encoding.
  const std::vector<std::string> alphabet = {
      "|", "%", "\n", "\r", "%%", "|%|", "a", "\t", " ", "\"", ",", "\\",
      "%7C", "\x01", "\x7f", "\xc3\xa9" /* é */, "\xe2\x82\xac" /* € */,
      "0", "ndv-stats-v2"};
  const std::vector<double> extremes = {
      0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, 1e-300,
      123456789.123456789, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  const std::vector<int64_t> extreme_ints = {
      0, 1, -1, std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min()};

  Rng rng(2024);
  StatsCatalog catalog;
  catalog.Put(MakeStats("", 5));  // The empty name is a name.
  for (int trial = 0; trial < 200; ++trial) {
    ColumnStats stats;
    const int pieces = static_cast<int>(rng.NextBounded(6)) + 1;
    for (int i = 0; i < pieces; ++i) {
      stats.column_name += alphabet[rng.NextBounded(alphabet.size())];
    }
    stats.method = alphabet[rng.NextBounded(alphabet.size())];
    stats.table_rows = extreme_ints[rng.NextBounded(extreme_ints.size())];
    stats.sample_rows = extreme_ints[rng.NextBounded(extreme_ints.size())];
    stats.sample_distinct =
        extreme_ints[rng.NextBounded(extreme_ints.size())];
    stats.estimate = extremes[rng.NextBounded(extremes.size())];
    stats.lower = extremes[rng.NextBounded(extremes.size())];
    stats.upper = extremes[rng.NextBounded(extremes.size())];
    stats.coverage = extremes[rng.NextBounded(extremes.size())];
    stats.degraded = rng.NextBounded(2) == 1;
    catalog.Put(stats);
  }
  const StatsCatalog back =
      ReopenedFromSnapshot("durable_rt_adversarial", catalog);
  EXPECT_EQ(back.Serialize(), catalog.Serialize());
  EXPECT_TRUE(back.Find("").has_value());
}

TEST(DurableCatalogRoundTripTest, DuplicatePutsLastWins) {
  const std::string dir = TestDir("durable_rt_duplicates");
  StatsCatalog model;
  {
    auto durable = OpenOrDie({.dir = dir});
    for (const auto& [name, salt] : std::vector<std::pair<std::string, int>>{
             {"col", 1}, {"col", 2}, {"other", 3}, {"col", 4}}) {
      ASSERT_TRUE(durable->AppendPut(MakeStats(name, salt)).ok());
      model.Put(MakeStats(name, salt));
    }
    ASSERT_TRUE(durable->Compact().ok());
  }
  auto durable = OpenOrDie({.dir = dir});
  ASSERT_EQ(durable->state().entries().size(), 2u);
  EXPECT_EQ(durable->state().Find("col")->table_rows, 1004);
  EXPECT_EQ(durable->state().Serialize(), model.Serialize());
}

TEST(DurableCatalogRoundTripTest, AnalyzedCatalogSurvives) {
  const StatsCatalog catalog =
      AnalyzeTable(MakeCensusLikeScaled(2000), AnalyzeOptions{});
  EXPECT_EQ(ReopenedFromSnapshot("durable_rt_census", catalog).Serialize(),
            catalog.Serialize());
}

// ---- Crash-point death tests: the in-process complement of the
// tools/ndv_crash fleet. EXPECT_EXIT forks, so arming inside the statement
// affects only the child; the parent then recovers the directory the
// child's crash left behind. Counters are reset in the child first so hit
// numbers are process-local regardless of what ran before the fork.

TEST(DurableCatalogCrashTest, CrashAfterFsyncKeepsAcknowledgedRecord) {
  const std::string dir = TestDir("durable_crash_synced");
  auto durable = OpenOrDie({.dir = dir});
  EXPECT_EXIT(
      {
        ResetCrashPoints();
        ArmCrashPoint("wal.append.synced", 1);
        const Status ignored = durable->AppendPut(MakeStats("a", 1));
        (void)ignored;
      },
      testing::ExitedWithCode(kCrashPointExitCode),
      "NDV_CRASH_POINT fired: wal.append.synced");
  durable.reset();
  // The crash hit AFTER the fsync: the record is durable and must be
  // recovered in full.
  auto recovered = OpenOrDie({.dir = dir});
  EXPECT_EQ(recovered->epoch(), 1u);
  EXPECT_TRUE(recovered->state().Find("a").has_value());
}

TEST(DurableCatalogCrashTest, CrashMidRecordLeavesNoTrace) {
  const std::string dir = TestDir("durable_crash_torn");
  auto durable = OpenOrDie({.dir = dir});
  ASSERT_TRUE(durable->AppendPut(MakeStats("kept", 7)).ok());
  const std::string before = durable->state().Serialize();
  EXPECT_EXIT(
      {
        ResetCrashPoints();
        ArmCrashPoint("wal.append.torn", 1);
        const Status ignored = durable->AppendPut(MakeStats("torn", 8));
        (void)ignored;
      },
      testing::ExitedWithCode(kCrashPointExitCode),
      "NDV_CRASH_POINT fired: wal.append.torn");
  durable.reset();
  // The crash left half a record on disk. Recovery must truncate it and
  // keep only the acknowledged prefix — no partial Put applied.
  auto recovered = OpenOrDie({.dir = dir});
  EXPECT_EQ(recovered->epoch(), 1u);
  EXPECT_GT(recovered->recovery().truncated_bytes, 0);
  EXPECT_EQ(recovered->state().Serialize(), before);
  EXPECT_FALSE(recovered->state().Find("torn").has_value());
}

TEST(DurableCatalogCrashTest, CrashBetweenSnapshotRenamesRecoversFromPrev) {
  const std::string dir = TestDir("durable_crash_rename");
  StatsCatalog model;
  auto durable = OpenOrDie({.dir = dir, .snapshot_every_records = 0});
  AppendPuts(durable.get(), 5, &model);
  ASSERT_TRUE(durable->Compact().ok());  // snapshot at epoch 5 exists
  AppendPuts(durable.get(), 2, &model);  // live WAL holds epochs 6, 7
  const std::string expected = durable->state().Serialize();
  EXPECT_EXIT(
      {
        // Die between "old snapshot renamed to prev" and "new snapshot
        // renamed in": at that instant the directory has NO snapshot.ndv,
        // only snapshot.prev.ndv (epoch 5) and the intact live WAL.
        ResetCrashPoints();
        ArmCrashPoint("snapshot.prev_renamed", 1);
        const Status ignored = durable->Compact();
        (void)ignored;
      },
      testing::ExitedWithCode(kCrashPointExitCode),
      "NDV_CRASH_POINT fired: snapshot.prev_renamed");
  durable.reset();
  auto recovered = OpenOrDie({.dir = dir, .snapshot_every_records = 0});
  EXPECT_EQ(recovered->epoch(), 7u);
  EXPECT_EQ(recovered->recovery().replayed_records, 2);
  EXPECT_EQ(recovered->state().Serialize(), expected);
}

TEST(CrashPointTest, CountingAndEnvArming) {
  ResetCrashPoints();
  EnableCrashPointCounting();
  NDV_CRASH_POINT("test.site");
  NDV_CRASH_POINT("test.site");
  NDV_CRASH_POINT("test.other");
  EXPECT_EQ(CrashPointHits("test.site"), 2);
  EXPECT_EQ(CrashPointHits("test.other"), 1);
  EXPECT_EQ(CrashPointHits("test.never"), 0);
  const auto counts = CrashPointCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].first, "test.site");
  ResetCrashPoints();
  EXPECT_EQ(CrashPointHits("test.site"), 0);

  ::setenv("NDV_CRASH_POINT", "not-a-spec", 1);
  EXPECT_FALSE(ArmCrashPointFromEnv());
  ::setenv("NDV_CRASH_POINT", "some.site:3", 1);
  EXPECT_TRUE(ArmCrashPointFromEnv());
  ::unsetenv("NDV_CRASH_POINT");
  ResetCrashPoints();
}

// ---- Checked-in fixture replay: a store written by `ndv_crash
// --make-fixtures` (two snapshot generations + rotated and live WALs)
// must recover on today's code, under exhaustive mutation of its tail.

std::string FixtureDir() {
  const char* root = std::getenv("NDV_TESTDATA");
  if (root == nullptr) return "";
  return std::string(root) + "/durable";
}

// Copies the fixture store (or the named files of it) into a scratch dir:
// recovery repairs the live WAL in place, so tests must never open the
// checked-in copy directly.
bool CopyFixture(const std::string& from, const std::string& to,
                 const std::vector<std::string_view>& names = {
                     DurableCatalog::kSnapshotFile,
                     DurableCatalog::kSnapshotPrevFile,
                     DurableCatalog::kWalFile, DurableCatalog::kWalPrevFile}) {
  std::system(("rm -rf " + to).c_str());
  if (!EnsureDirectory(to).ok()) return false;
  for (const std::string_view name : names) {
    auto bytes = ReadFileOrStatus(from + "/" + std::string(name));
    if (!bytes.ok()) return false;
    if (!AtomicWriteFile(to + "/" + std::string(name), *bytes,
                         /*sync=*/false)
             .ok()) {
      return false;
    }
  }
  return true;
}

// Every file in `dir`, by name.
std::map<std::string, std::string> ReadDirectory(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto bytes = ReadFileOrStatus(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    files[entry.path().filename().string()] = bytes.ok() ? *bytes : "";
  }
  return files;
}

// legacy_v1/ is a store the previous format wrote ("NDVWAL1\n" logs, text
// snapshots). Open() refuses it whole, or only its snapshot, or only its
// live log, with the typed version error, and changes no file: no repair,
// no new log header.
TEST(DurableCatalogFixtureTest, LegacyV1StoreIsRefusedAndLeftUntouched) {
  const std::string fixture = FixtureDir();
  if (fixture.empty()) GTEST_SKIP() << "NDV_TESTDATA not set";
  const std::vector<std::vector<std::string_view>> copies = {
      {DurableCatalog::kSnapshotFile, DurableCatalog::kSnapshotPrevFile,
       DurableCatalog::kWalFile, DurableCatalog::kWalPrevFile},
      {DurableCatalog::kSnapshotFile},
      {DurableCatalog::kWalFile}};
  for (const std::vector<std::string_view>& names : copies) {
    SCOPED_TRACE(std::to_string(names.size()) + " file(s), first " +
                 std::string(names.front()));
    const std::string work = TestDir("durable_fixture_legacy");
    ASSERT_TRUE(CopyFixture(fixture + "/legacy_v1", work, names));
    const auto before = ReadDirectory(work);
    ASSERT_EQ(before.size(), names.size());
    auto opened = DurableCatalog::Open({.dir = work});
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(opened.status().message().starts_with(
        "durable catalog v1 is unsupported; "))
        << opened.status().ToString();
    EXPECT_EQ(ReadDirectory(work), before);
  }
}

TEST(DurableCatalogFixtureTest, CheckedInStoreRecoversBitIdentical) {
  const std::string fixture = FixtureDir();
  if (fixture.empty()) GTEST_SKIP() << "NDV_TESTDATA not set";
  auto expected_epoch = ReadFileOrStatus(fixture + "/expected_epoch");
  auto expected_state = ReadFileOrStatus(fixture + "/expected_state.txt");
  ASSERT_TRUE(expected_epoch.ok() && expected_state.ok());

  const std::string work = TestDir("durable_fixture_basic");
  ASSERT_TRUE(CopyFixture(fixture + "/basic", work));
  auto recovered =
      DurableCatalog::Open({.dir = work, .snapshot_every_records = 4});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->epoch(),
            std::strtoull(expected_epoch->c_str(), nullptr, 10));
  EXPECT_EQ((*recovered)->state().Serialize(), *expected_state);
}

TEST(DurableCatalogFixtureTest, EveryTailTruncationRecoversCleanly) {
  const std::string fixture = FixtureDir();
  if (fixture.empty()) GTEST_SKIP() << "NDV_TESTDATA not set";
  auto wal = ReadFileOrStatus(fixture + "/basic/" +
                              std::string(DurableCatalog::kWalFile));
  ASSERT_TRUE(wal.ok());

  const std::string work = TestDir("durable_fixture_trunc");
  for (size_t cut = 0; cut < wal->size(); ++cut) {
    ASSERT_TRUE(CopyFixture(fixture + "/basic", work));
    ASSERT_TRUE(
        AtomicWriteFile(work + "/" + std::string(DurableCatalog::kWalFile),
                        std::string_view(*wal).substr(0, cut),
                        /*sync=*/false)
            .ok());
    auto recovered =
        DurableCatalog::Open({.dir = work, .snapshot_every_records = 4});
    ASSERT_TRUE(recovered.ok())
        << "cut at byte " << cut << ": " << recovered.status().ToString();
    // The snapshot generation floors the recovered epoch; the WAL tail
    // can only add to it.
    EXPECT_GE((*recovered)->epoch(), 8u) << "cut at byte " << cut;
    EXPECT_LE((*recovered)->epoch(), 10u) << "cut at byte " << cut;
    // Recovery is idempotent: a second open reproduces the same state
    // with nothing further to repair.
    const uint64_t epoch = (*recovered)->epoch();
    const std::string state = (*recovered)->state().Serialize();
    recovered->reset();
    auto reopened =
        DurableCatalog::Open({.dir = work, .snapshot_every_records = 4});
    ASSERT_TRUE(reopened.ok()) << "cut at byte " << cut;
    EXPECT_EQ((*reopened)->epoch(), epoch) << "cut at byte " << cut;
    EXPECT_EQ((*reopened)->state().Serialize(), state)
        << "cut at byte " << cut;
    EXPECT_EQ((*reopened)->recovery().truncated_bytes, 0)
        << "cut at byte " << cut;
  }
}

TEST(DurableCatalogFixtureTest, CorruptFixtureSnapshotFallsBackToFullState) {
  const std::string fixture = FixtureDir();
  if (fixture.empty()) GTEST_SKIP() << "NDV_TESTDATA not set";
  auto expected_state = ReadFileOrStatus(fixture + "/expected_state.txt");
  ASSERT_TRUE(expected_state.ok());

  const std::string work = TestDir("durable_fixture_corrupt");
  ASSERT_TRUE(CopyFixture(fixture + "/basic", work));
  const std::string snapshot_path =
      work + "/" + std::string(DurableCatalog::kSnapshotFile);
  auto snapshot = ReadFileOrStatus(snapshot_path);
  ASSERT_TRUE(snapshot.ok());
  std::string corrupt = *snapshot;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x10);
  ASSERT_TRUE(AtomicWriteFile(snapshot_path, corrupt, /*sync=*/false).ok());

  // Fallback snapshot (epoch 4) + rotated WAL (5..8) + live WAL (9..10)
  // rebuild the complete state: corrupting the newest snapshot loses
  // NOTHING as long as one rotation of history is intact.
  auto recovered =
      DurableCatalog::Open({.dir = work, .snapshot_every_records = 4});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery().used_fallback_snapshot);
  EXPECT_EQ((*recovered)->epoch(), 10u);
  EXPECT_EQ((*recovered)->state().Serialize(), *expected_state);
}

}  // namespace
}  // namespace ndv
