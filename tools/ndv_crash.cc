// ndv_crash — process-level chaos harness for the durable catalog
// (DESIGN.md §14).
//
// The loop: run a deterministic append/compact workload in a forked child
// with exactly one crash point armed (NDV_CRASH_POINT site + 1-based hit),
// let the child die mid-protocol, then recover the directory in the parent
// and verify the crash-recovery contract:
//
//   1. no acknowledged append is lost — the recovered epoch is at least
//      the last epoch the child acknowledged to its ack file;
//   2. no partial record is applied — the recovered catalog serializes
//      bit-identically to the model state at the recovered epoch;
//   3. the store still works — the parent appends more records on top of
//      the recovered state, compacts, reopens, and re-verifies.
//
// The schedule is DISCOVERED, not hand-listed: a clean counting run
// enumerates every NDV_CRASH_POINT site the workload executes and how
// often, and the harness fans out over the (site, hit) grid — hundreds of
// distinct crash injections covering every append/fsync/rename boundary.
// A second phase arms the recovery-only sites (tail repair, WAL
// recreation) against a pre-crashed directory, so crashes DURING recovery
// are exercised too.
//
// Usage:
//   ndv_crash [--seed N] [--epochs N] [--snapshot-every N]
//             [--max-hits-per-site N] [--limit N] [--dir BASE] [--keep]
//             [--fsync every|none] [--list-sites]
//   ndv_crash --make-fixtures DIR   # write tests/testdata fixture dirs

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "catalog/durable_catalog.h"
#include "catalog/stats_catalog.h"
#include "common/crash_point.h"
#include "common/file_io.h"
#include "common/random.h"

namespace ndv {
namespace {

struct CrashOptions {
  uint64_t seed = 1;
  int64_t epochs = 48;          // workload length (appended records)
  int64_t snapshot_every = 4;   // auto-compaction cadence
  int64_t max_hits_per_site = 12;
  int64_t limit = 0;            // 0 = run the whole schedule
  int64_t continue_epochs = 5;  // records appended after each recovery
  std::string base_dir;         // empty = mkdtemp under TMPDIR
  std::string fixtures_dir;     // --make-fixtures target
  FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
  bool keep = false;
  bool list_sites = false;
};

// ---- Deterministic workload. The op applied at epoch e is a pure
// function of e, so the expected catalog at any epoch is replayable by
// the parent, by a fixture-driven test, or by a process that never saw
// the crash.

ColumnStats StatsForEpoch(uint64_t epoch, const std::string& name) {
  ColumnStats stats;
  stats.column_name = name;
  stats.table_rows = 1000 + static_cast<int64_t>(epoch) * 3;
  stats.sample_rows = 100 + static_cast<int64_t>(epoch % 50);
  stats.sample_distinct = 10 + static_cast<int64_t>(epoch % 90);
  stats.estimate = static_cast<double>(stats.sample_distinct) +
                   static_cast<double>(epoch) * 1.5;
  stats.lower = static_cast<double>(stats.sample_distinct);
  stats.upper = stats.estimate * 2.0 + 50.0;
  stats.method = epoch % 3 == 0 ? "GEE" : "AE";
  stats.coverage = epoch % 2 == 0 ? 1.0 : 0.5;
  stats.degraded = epoch % 2 != 0;
  return stats;
}

// Applies epoch `e`'s op to the in-memory model.
void ApplyOpToModel(uint64_t e, StatsCatalog* model) {
  if (e % 5 == 0) {
    StatsCatalog replacement;
    const uint64_t columns = 1 + (e / 5) % 3;
    for (uint64_t c = 0; c < columns; ++c) {
      replacement.Put(StatsForEpoch(e + c, "pub" + std::to_string(c)));
    }
    *model = std::move(replacement);
  } else {
    model->Put(StatsForEpoch(e, "col" + std::to_string(e % 4)));
  }
}

// Applies epoch `e`'s op through the durable catalog (same op as the
// model; the catalog assigns exactly epoch e because ops are issued in
// sequence).
Status ApplyOpDurably(uint64_t e, DurableCatalog* durable) {
  if (e % 5 == 0) {
    StatsCatalog replacement;
    const uint64_t columns = 1 + (e / 5) % 3;
    for (uint64_t c = 0; c < columns; ++c) {
      replacement.Put(StatsForEpoch(e + c, "pub" + std::to_string(c)));
    }
    return durable->AppendPublish(replacement);
  }
  return durable->AppendPut(StatsForEpoch(e, "col" + std::to_string(e % 4)));
}

StatsCatalog ExpectedStateAt(uint64_t epoch) {
  StatsCatalog model;
  for (uint64_t e = 1; e <= epoch; ++e) ApplyOpToModel(e, &model);
  return model;
}

// Runs epochs (from, to] against `durable`, acknowledging each applied
// epoch to `ack_path` (atomic rename, so the ack file is never torn; a
// crash can at worst lose the LAST ack, never invent one — which is what
// makes it a sound lower bound for verification).
Status RunWorkload(DurableCatalog* durable, uint64_t from, uint64_t to,
                   const std::string& ack_path) {
  for (uint64_t e = from + 1; e <= to; ++e) {
    NDV_RETURN_IF_ERROR(ApplyOpDurably(e, durable));
    if (!ack_path.empty()) {
      NDV_RETURN_IF_ERROR(
          AtomicWriteFile(ack_path, std::to_string(e), /*sync=*/false));
    }
  }
  return Status::Ok();
}

// ---- Small process/file utilities.

int64_t ReadAckFile(const std::string& path) {
  auto bytes = ReadFileOrStatus(path);
  if (!bytes.ok()) return 0;
  return std::strtoll(bytes->c_str(), nullptr, 10);
}

Status CopyDirFlat(const std::string& from, const std::string& to) {
  NDV_RETURN_IF_ERROR(EnsureDirectory(to));
  DIR* dir = ::opendir(from.c_str());
  if (dir == nullptr) {
    return InternalError("opendir %s failed: %s", from.c_str(),
                         std::strerror(errno));
  }
  Status status = Status::Ok();
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    auto bytes = ReadFileOrStatus(from + "/" + name);
    if (!bytes.ok()) {
      status = bytes.status();
      break;
    }
    status = AtomicWriteFile(to + "/" + name, *bytes, /*sync=*/false);
    if (!status.ok()) break;
  }
  ::closedir(dir);
  return status;
}

void RemoveDirRecursive(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir != nullptr) {
    while (struct dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = path + "/" + name;
      struct stat info;
      if (::lstat(child.c_str(), &info) == 0 && S_ISDIR(info.st_mode)) {
        RemoveDirRecursive(child);
      } else {
        ::unlink(child.c_str());
      }
    }
    ::closedir(dir);
  }
  ::rmdir(path.c_str());
}

// ---- One chaos injection: fork, crash, recover, verify, continue.

struct Injection {
  std::string site;
  int64_t hit = 0;
  bool during_recovery = false;  // phase 2: armed while Open() replays
};

struct InjectionResult {
  bool fired = false;     // the child actually died at the armed site
  bool verified = false;  // all three contract checks passed
  std::string failure;    // empty when verified
  RecoveryInfo recovery;  // parent's recovery of the crashed directory
};

// What the forked child runs. Phase 1 children run the workload from
// scratch; phase 2 children recover a pre-crashed directory and continue —
// both with the armed site live, so the crash can land anywhere inside
// append, compaction, or recovery itself.
void ChildBody(const Injection& injection, const CrashOptions& options,
               const std::string& dir, const std::string& ack_path) {
  ResetCrashPoints();
  ArmCrashPoint(injection.site, injection.hit);
  DurableCatalogOptions catalog_options;
  catalog_options.dir = dir;
  catalog_options.fsync = options.fsync;
  catalog_options.snapshot_every_records = options.snapshot_every;
  auto durable = DurableCatalog::Open(std::move(catalog_options));
  if (!durable.ok()) {
    std::fprintf(stderr, "child open failed: %s\n",
                 durable.status().ToString().c_str());
    ::_exit(1);
  }
  const uint64_t from = (*durable)->epoch();
  const uint64_t to = injection.during_recovery
                          ? from + static_cast<uint64_t>(options.continue_epochs)
                          : static_cast<uint64_t>(options.epochs);
  const Status status = RunWorkload(durable->get(), from, to, ack_path);
  if (!status.ok()) {
    std::fprintf(stderr, "child workload failed: %s\n",
                 status.ToString().c_str());
    ::_exit(1);
  }
  ::_exit(0);
}

InjectionResult RunInjection(const Injection& injection,
                             const CrashOptions& options,
                             const std::string& dir,
                             const std::string& template_dir) {
  InjectionResult result;
  RemoveDirRecursive(dir);
  if (injection.during_recovery) {
    const Status copied = CopyDirFlat(template_dir, dir);
    if (!copied.ok()) {
      result.failure = "fixture copy failed: " + copied.ToString();
      return result;
    }
  } else {
    const Status made = EnsureDirectory(dir);
    if (!made.ok()) {
      result.failure = made.ToString();
      return result;
    }
  }
  const std::string ack_path = dir + "/acks";

  const pid_t pid = ::fork();
  if (pid < 0) {
    result.failure = std::string("fork failed: ") + std::strerror(errno);
    return result;
  }
  if (pid == 0) {
    ChildBody(injection, options, dir, ack_path);  // never returns
  }
  int wait_status = 0;
  while (::waitpid(pid, &wait_status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(wait_status) &&
      WEXITSTATUS(wait_status) == kCrashPointExitCode) {
    result.fired = true;
  } else if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
    result.failure = "child died unexpectedly (status " +
                     std::to_string(wait_status) + ")";
    return result;
  }

  // Recover the crashed (or cleanly finished) directory and check the
  // contract. The parent runs unarmed: recovery here is the real thing.
  const int64_t acked = ReadAckFile(ack_path);
  DurableCatalogOptions catalog_options;
  catalog_options.dir = dir;
  catalog_options.fsync = options.fsync;
  catalog_options.snapshot_every_records = options.snapshot_every;
  auto durable = DurableCatalog::Open(catalog_options);
  if (!durable.ok()) {
    result.failure = "recovery failed: " + durable.status().ToString();
    return result;
  }
  result.recovery = (*durable)->recovery();
  const uint64_t epoch = (*durable)->epoch();
  if (epoch < static_cast<uint64_t>(acked)) {
    result.failure = "LOST ACKNOWLEDGED RECORDS: recovered epoch " +
                     std::to_string(epoch) + " < acked epoch " +
                     std::to_string(acked);
    return result;
  }
  if ((*durable)->state().Serialize() != ExpectedStateAt(epoch).Serialize()) {
    result.failure = "recovered state at epoch " + std::to_string(epoch) +
                     " is not bit-identical to the model";
    return result;
  }

  // Continue on top of the recovered state, compact, reopen, re-verify:
  // recovery must yield a store that is still fully functional.
  const uint64_t target =
      epoch + static_cast<uint64_t>(options.continue_epochs);
  Status status = RunWorkload(durable->get(), epoch, target, ack_path);
  if (status.ok()) status = (*durable)->Compact();
  if (!status.ok()) {
    result.failure = "post-recovery workload failed: " + status.ToString();
    return result;
  }
  durable->reset();
  auto reopened = DurableCatalog::Open(std::move(catalog_options));
  if (!reopened.ok()) {
    result.failure = "re-open failed: " + reopened.status().ToString();
    return result;
  }
  if ((*reopened)->epoch() != target ||
      (*reopened)->state().Serialize() !=
          ExpectedStateAt(target).Serialize()) {
    result.failure = "post-recovery state diverged from the model";
    return result;
  }
  result.verified = true;
  return result;
}

// ---- Schedule discovery.

std::vector<std::pair<std::string, int64_t>> DiscoverSites(
    const CrashOptions& options, const std::string& scratch_dir,
    bool during_recovery, const std::string& template_dir) {
  ResetCrashPoints();
  EnableCrashPointCounting();
  RemoveDirRecursive(scratch_dir);
  if (during_recovery) {
    const Status copied = CopyDirFlat(template_dir, scratch_dir);
    if (!copied.ok()) {
      std::fprintf(stderr, "discovery copy failed: %s\n",
                   copied.ToString().c_str());
      return {};
    }
  } else {
    const Status made = EnsureDirectory(scratch_dir);
    if (!made.ok()) return {};
  }
  DurableCatalogOptions catalog_options;
  catalog_options.dir = scratch_dir;
  catalog_options.fsync = options.fsync;
  catalog_options.snapshot_every_records = options.snapshot_every;
  auto durable = DurableCatalog::Open(std::move(catalog_options));
  if (!durable.ok()) {
    std::fprintf(stderr, "discovery open failed: %s\n",
                 durable.status().ToString().c_str());
    return {};
  }
  const uint64_t from = (*durable)->epoch();
  const uint64_t to =
      during_recovery
          ? from + static_cast<uint64_t>(options.continue_epochs)
          : static_cast<uint64_t>(options.epochs);
  const Status status =
      RunWorkload(durable->get(), from, to, scratch_dir + "/acks");
  if (!status.ok()) {
    std::fprintf(stderr, "discovery workload failed: %s\n",
                 status.ToString().c_str());
    return {};
  }
  auto counts = CrashPointCounts();
  ResetCrashPoints();
  return counts;
}

// Builds a directory that died mid-append with a torn record on disk —
// the phase-2 template whose recovery exercises tail repair.
bool MakeCrashedTemplate(const CrashOptions& options,
                         const std::string& dir) {
  RemoveDirRecursive(dir);
  const Status made = EnsureDirectory(dir);
  if (!made.ok()) return false;
  Injection injection;
  injection.site = "wal.append.torn";
  injection.hit = options.epochs / 2 + 1;
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) ChildBody(injection, options, dir, dir + "/acks");
  int wait_status = 0;
  while (::waitpid(pid, &wait_status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(wait_status) &&
         WEXITSTATUS(wait_status) == kCrashPointExitCode;
}

// ---- Fixture generation (--make-fixtures): small durable directories the
// checked-in recovery tests replay. Layout under DIR:
//   basic/            intact store: snapshot (epoch 8), prev snapshot
//                     (epoch 4), rotated WAL, live WAL with epochs 9..10
//   expected_epoch    "10"
//   expected_state.txt  ExpectedStateAt(10).Serialize()
// Tests derive torn/corrupt variants by mutating copies of basic/ (every
// byte-length truncation of the tail record, flipped snapshot bytes), so
// the checked-in bytes stay small and the mutation space stays exhaustive.
bool MakeFixtures(const CrashOptions& options) {
  const std::string& dir = options.fixtures_dir;
  // Only basic/ is rewritten; other stores under DIR (legacy_v1/) stay.
  RemoveDirRecursive(dir + "/basic");
  Status status = EnsureDirectory(dir);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  const uint64_t kFixtureEpochs = 10;
  DurableCatalogOptions catalog_options;
  catalog_options.dir = dir + "/basic";
  catalog_options.fsync = FsyncPolicy::kEveryRecord;
  catalog_options.snapshot_every_records = 4;
  auto durable = DurableCatalog::Open(std::move(catalog_options));
  if (!durable.ok()) {
    std::fprintf(stderr, "%s\n", durable.status().ToString().c_str());
    return false;
  }
  status = RunWorkload(durable->get(), 0, kFixtureEpochs, "");
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  const std::string expected = (*durable)->state().Serialize();
  if (expected != ExpectedStateAt(kFixtureEpochs).Serialize()) {
    std::fprintf(stderr, "fixture state diverged from the model\n");
    return false;
  }
  status = AtomicWriteFile(dir + "/expected_epoch",
                           std::to_string(kFixtureEpochs) + "\n");
  if (status.ok()) {
    status = AtomicWriteFile(dir + "/expected_state.txt", expected);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  std::printf("fixtures written to %s (epoch %llu, %zu catalog bytes)\n",
              dir.c_str(), static_cast<unsigned long long>(kFixtureEpochs),
              expected.size());
  return true;
}

int Run(const CrashOptions& options) {
  if (!options.fixtures_dir.empty()) return MakeFixtures(options) ? 0 : 1;

  std::string base = options.base_dir;
  if (base.empty()) {
    char pattern[] = "/tmp/ndv_crash.XXXXXX";
    const char* made = ::mkdtemp(pattern);
    if (made == nullptr) {
      std::fprintf(stderr, "mkdtemp failed: %s\n", std::strerror(errno));
      return 1;
    }
    base = made;
  } else {
    const Status status = EnsureDirectory(base);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  // Phase 2 template: a directory that crashed mid-append, so recovering
  // it repairs a torn tail (and the recovery-only sites execute).
  const std::string template_dir = base + "/crashed_template";
  const bool have_template = MakeCrashedTemplate(options, template_dir);
  if (!have_template) {
    std::fprintf(stderr, "warning: could not build crashed template; "
                         "recovery-phase injections skipped\n");
  }

  // Discover the schedule from clean counting runs of both phases.
  const std::string scratch = base + "/discovery";
  std::vector<Injection> schedule;
  const auto workload_sites =
      DiscoverSites(options, scratch, /*during_recovery=*/false, "");
  for (const auto& [site, count] : workload_sites) {
    const int64_t hits = std::min(count, options.max_hits_per_site);
    for (int64_t hit = 1; hit <= hits; ++hit) {
      schedule.push_back({site, hit, /*during_recovery=*/false});
    }
  }
  size_t workload_injections = schedule.size();
  if (have_template) {
    const auto recovery_sites = DiscoverSites(
        options, scratch, /*during_recovery=*/true, template_dir);
    for (const auto& [site, count] : recovery_sites) {
      const int64_t hits = std::min(
          count, std::min<int64_t>(options.max_hits_per_site, 4));
      for (int64_t hit = 1; hit <= hits; ++hit) {
        schedule.push_back({site, hit, /*during_recovery=*/true});
      }
    }
  }
  if (options.list_sites) {
    for (const auto& [site, count] : workload_sites) {
      std::printf("%-28s x%lld\n", site.c_str(),
                  static_cast<long long>(count));
    }
    if (!options.keep) RemoveDirRecursive(base);
    return 0;
  }

  // Deterministic shuffle so --limit N samples boundaries across the whole
  // protocol instead of hammering the first site.
  Rng rng(options.seed);
  for (size_t i = schedule.size(); i > 1; --i) {
    std::swap(schedule[i - 1], schedule[rng.NextBounded(i)]);
  }
  if (options.limit > 0 &&
      schedule.size() > static_cast<size_t>(options.limit)) {
    schedule.resize(static_cast<size_t>(options.limit));
  }

  std::printf("ndv_crash: %zu sites, %zu injections (%zu workload + %zu "
              "recovery), seed %llu\n",
              workload_sites.size(), schedule.size(),
              std::min(workload_injections, schedule.size()),
              schedule.size() - std::min(workload_injections,
                                         schedule.size()),
              static_cast<unsigned long long>(options.seed));

  const std::string work_dir = base + "/work";
  int64_t fired = 0;
  int64_t verified = 0;
  int64_t failures = 0;
  int64_t replayed_total = 0;
  int64_t truncated_total = 0;
  double boot_millis_total = 0.0;
  double boot_millis_max = 0.0;
  const auto started = std::chrono::steady_clock::now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Injection& injection = schedule[i];
    const InjectionResult result =
        RunInjection(injection, options, work_dir, template_dir);
    fired += result.fired ? 1 : 0;
    if (result.verified) {
      ++verified;
      replayed_total += result.recovery.replayed_records;
      truncated_total += result.recovery.truncated_bytes;
      boot_millis_total += result.recovery.boot_millis;
      boot_millis_max =
          std::max(boot_millis_max, result.recovery.boot_millis);
    } else {
      ++failures;
      std::fprintf(stderr, "FAIL %s:%lld%s — %s\n", injection.site.c_str(),
                   static_cast<long long>(injection.hit),
                   injection.during_recovery ? " (during recovery)" : "",
                   result.failure.c_str());
    }
    if ((i + 1) % 50 == 0) {
      std::printf("  ... %zu/%zu injections, %lld fired, %lld verified\n",
                  i + 1, schedule.size(), static_cast<long long>(fired),
                  static_cast<long long>(verified));
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  std::printf(
      "ndv_crash: %lld/%zu verified (%lld crashes fired, %lld failures) in "
      "%.1fs\n",
      static_cast<long long>(verified), schedule.size(),
      static_cast<long long>(fired), static_cast<long long>(failures),
      elapsed);
  if (verified > 0) {
    std::printf(
        "  recovery: %.3f ms mean boot (%.3f ms max), %lld records "
        "replayed, %lld torn bytes truncated across runs\n",
        boot_millis_total / static_cast<double>(verified), boot_millis_max,
        static_cast<long long>(replayed_total),
        static_cast<long long>(truncated_total));
  }
  if (!options.keep) RemoveDirRecursive(base);
  return failures == 0 ? 0 : 1;
}

bool ParseInt64Flag(const char* value, int64_t* out) {
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

}  // namespace
}  // namespace ndv

int main(int argc, char** argv) {
  ndv::CrashOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    int64_t seed_value = 0;
    if (arg == "--seed" && next() != nullptr &&
        ndv::ParseInt64Flag(argv[i], &seed_value)) {
      options.seed = static_cast<uint64_t>(seed_value);
    } else if (arg == "--epochs" && next() != nullptr &&
               ndv::ParseInt64Flag(argv[i], &options.epochs)) {
    } else if (arg == "--snapshot-every" && next() != nullptr &&
               ndv::ParseInt64Flag(argv[i], &options.snapshot_every)) {
    } else if (arg == "--max-hits-per-site" && next() != nullptr &&
               ndv::ParseInt64Flag(argv[i], &options.max_hits_per_site)) {
    } else if (arg == "--limit" && next() != nullptr &&
               ndv::ParseInt64Flag(argv[i], &options.limit)) {
    } else if (arg == "--dir" && next() != nullptr) {
      options.base_dir = argv[i];
    } else if (arg == "--make-fixtures" && next() != nullptr) {
      options.fixtures_dir = argv[i];
    } else if (arg == "--fsync" && next() != nullptr) {
      const std::string policy = argv[i];
      if (policy == "every") {
        options.fsync = ndv::FsyncPolicy::kEveryRecord;
      } else if (policy == "none") {
        options.fsync = ndv::FsyncPolicy::kNone;
      } else {
        std::fprintf(stderr, "unknown --fsync policy '%s'\n",
                     policy.c_str());
        return 2;
      }
    } else if (arg == "--keep") {
      options.keep = true;
    } else if (arg == "--list-sites") {
      options.list_sites = true;
    } else {
      std::fprintf(stderr,
                   "usage: ndv_crash [--seed N] [--epochs N] "
                   "[--snapshot-every N] [--max-hits-per-site N] "
                   "[--limit N] [--dir BASE] [--fsync every|none] [--keep] "
                   "[--list-sites] [--make-fixtures DIR]\n");
      return 2;
    }
  }
  if (options.epochs < 1 || options.snapshot_every < 0 ||
      options.max_hits_per_site < 1) {
    std::fprintf(stderr, "invalid option values\n");
    return 2;
  }
  return ndv::Run(options);
}
