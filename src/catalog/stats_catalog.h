#ifndef NDV_CATALOG_STATS_CATALOG_H_
#define NDV_CATALOG_STATS_CATALOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/byte_codec.h"
#include "common/random.h"
#include "common/status.h"
#include "estimators/estimator.h"
#include "table/table.h"

namespace ndv {

// An ANALYZE-style statistics catalog: the query-optimizer-facing facade of
// the library. AnalyzeTable samples each column once, runs a configured
// estimator, and records the per-column distinct-value statistics a planner
// would consume (estimate + the GEE confidence interval + sample metadata).
// Statistics persist through DurableCatalog in the binary PutColumnStats
// encoding; Serialize() is a human-readable text dump that nothing reads
// back.

struct ColumnStats {
  std::string column_name;
  int64_t table_rows = 0;
  int64_t sample_rows = 0;
  int64_t sample_distinct = 0;  // d (also the LOWER bound)
  double estimate = 0.0;        // the configured estimator's D_hat
  double lower = 0.0;           // GEE interval LOWER (= d)
  double upper = 0.0;           // GEE interval UPPER
  std::string method;           // estimator name used for `estimate`

  // Fraction of the table's rows that were actually scanned to produce
  // these statistics. 1.0 for a monolithic ANALYZE; < 1.0 when a
  // distributed ANALYZE lost partitions permanently and degraded: the
  // interval is then widened so [lower, upper] still brackets the true D
  // (every unscanned row may introduce at most one new distinct value).
  double coverage = 1.0;
  // True when some partitions were never scanned (coverage < 1 and the
  // interval was widened accordingly).
  bool degraded = false;

  // Fraction of rows that are distinct per the estimate; planners use this
  // for selectivity of equality predicates (1 / D_hat).
  double EstimatedSelectivity() const {
    return estimate <= 0.0 ? 1.0 : 1.0 / estimate;
  }
};

// The one binary encoding of a ColumnStats, shared by serve STATS replies
// and WAL records (DESIGN.md §13, §14): column_name, table_rows,
// sample_rows, sample_distinct (i64), estimate, lower, upper, coverage
// (f64), degraded (bool byte), method, in common/byte_codec.h conventions.
void PutColumnStats(std::string* out, const ColumnStats& stats);
// Decodes one PutColumnStats image; a typed error on malformed bytes.
Status TakeColumnStats(ByteReader* reader, ColumnStats* stats);

struct AnalyzeOptions {
  double sample_fraction = 0.01;
  uint64_t seed = 1;
  // Estimator used for the point estimate ("AE" by default; the GEE bounds
  // are always recorded alongside).
  std::string estimator = "AE";
  // Worker threads (columns are analyzed independently). 0 = auto
  // (DefaultThreadCount(), which honors NDV_THREADS); 1 = run inline.
  // Per-column RNGs are pre-forked sequentially from `seed`, so results
  // are identical regardless of thread count.
  int threads = 0;
  // Ground-truth mode: scan every row of every column and record the exact
  // distinct count (method "EXACT", lower == estimate == upper, zero
  // sampling error). Uses the parallel scan-and-count kernel, so `threads`
  // (or NDV_THREADS) accelerates the full-table pass; the counts are
  // bit-identical at every thread count. `sample_fraction`, `seed`, and
  // `estimator` are ignored in this mode.
  bool exact = false;
};

class StatsCatalog {
 public:
  StatsCatalog() = default;

  // Inserts or replaces the entry for stats.column_name. Repeated Puts for
  // the same column are LAST WRITE WINS: the catalog never holds duplicate
  // entries, so a re-ANALYZE overwrites in place and Find/Serialize expose
  // exactly one (the newest) record per column.
  void Put(ColumnStats stats);

  // Stats for a column, or std::nullopt when absent. Returns BY VALUE on
  // purpose: a pointer into entries_ would be invalidated by the vector
  // reallocation a later Put can trigger — a use-after-free the moment a
  // reader holds a result across a writer's update (the serving shape).
  // Callers that need a long-lived view hold the copy; concurrent callers
  // should go through ConcurrentStatsCatalog, which resolves every lookup
  // against an immutable published snapshot.
  std::optional<ColumnStats> Find(std::string_view column_name) const;

  const std::vector<ColumnStats>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  // Write-only, human-readable dump (`ndv_cli analyze --out`, and the
  // form tests compare states in):
  //   ndv-stats-v2
  //   <name>|<table_rows>|<sample_rows>|<d>|<estimate>|<lower>|<upper>|
  //       <coverage>|<degraded 0/1>|<method>
  // Column names and methods are percent-escaped ('%', '|', newline);
  // doubles print as %.17g, which distinguishes every finite value, so
  // tests compare catalog states by their dumps.
  std::string Serialize() const;

 private:
  std::vector<ColumnStats> entries_;
};

// Samples every column of `table` and builds its catalog. A zero-row
// column is published as exact mode publishes it (method "EXACT", estimate
// 0, [0, 0], sample_rows 0). Aborts if options.estimator names an unknown
// estimator.
StatsCatalog AnalyzeTable(const Table& table, const AnalyzeOptions& options);

}  // namespace ndv

#endif  // NDV_CATALOG_STATS_CATALOG_H_
