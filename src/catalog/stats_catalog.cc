#include "catalog/stats_catalog.h"

#include <cstdio>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/all_estimators.h"
#include "core/gee.h"
#include "table/column_sampling.h"

namespace ndv {
namespace {

std::string EscapeName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (c == '%' || c == '|' || c == '\n') {
      char buffer[4];
      std::snprintf(buffer, sizeof(buffer), "%%%02X",
                    static_cast<unsigned char>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

// The exact statistics of column `c`: the ground-truth pass of exact
// mode, and what a sampled ANALYZE publishes for a zero-row column, which
// it cannot sample and knows exactly (estimate 0, bracket [0, 0]).
ColumnStats ExactColumnStats(const Table& table, int64_t c,
                             int scan_threads) {
  const Column& column = table.column(c);
  const int64_t exact = ExactDistinctHashSet(column, scan_threads);
  ColumnStats stats;
  stats.column_name = table.column_name(c);
  stats.table_rows = column.size();
  stats.sample_rows = column.size();
  stats.sample_distinct = exact;
  stats.estimate = static_cast<double>(exact);
  stats.lower = static_cast<double>(exact);
  stats.upper = static_cast<double>(exact);
  stats.method = "EXACT";
  return stats;
}

}  // namespace

void StatsCatalog::Put(ColumnStats stats) {
  // Last write wins: re-ANALYZE of an already-known column replaces the
  // entry in place, preserving the original catalog order and the
  // no-duplicates invariant that Serialize() and Find() rely on.
  for (ColumnStats& existing : entries_) {
    if (existing.column_name == stats.column_name) {
      existing = std::move(stats);
      return;
    }
  }
  entries_.push_back(std::move(stats));
}

std::optional<ColumnStats> StatsCatalog::Find(
    std::string_view column_name) const {
  for (const ColumnStats& stats : entries_) {
    if (stats.column_name == column_name) return stats;
  }
  return std::nullopt;
}

std::string StatsCatalog::Serialize() const {
  std::string out = "ndv-stats-v2\n";
  for (const ColumnStats& stats : entries_) {
    char buffer[320];
    std::snprintf(buffer, sizeof(buffer),
                  "|%lld|%lld|%lld|%.17g|%.17g|%.17g|%.17g|%d|",
                  static_cast<long long>(stats.table_rows),
                  static_cast<long long>(stats.sample_rows),
                  static_cast<long long>(stats.sample_distinct),
                  stats.estimate, stats.lower, stats.upper, stats.coverage,
                  stats.degraded ? 1 : 0);
    out += EscapeName(stats.column_name);
    out += buffer;
    out += EscapeName(stats.method);
    out += '\n';
  }
  return out;
}

void PutColumnStats(std::string* out, const ColumnStats& stats) {
  PutString(out, stats.column_name);
  PutI64(out, stats.table_rows);
  PutI64(out, stats.sample_rows);
  PutI64(out, stats.sample_distinct);
  PutF64(out, stats.estimate);
  PutF64(out, stats.lower);
  PutF64(out, stats.upper);
  PutF64(out, stats.coverage);
  PutBool(out, stats.degraded);
  PutString(out, stats.method);
}

Status TakeColumnStats(ByteReader* reader, ColumnStats* stats) {
  NDV_RETURN_IF_ERROR(reader->TakeString(&stats->column_name));
  NDV_RETURN_IF_ERROR(reader->TakeI64(&stats->table_rows));
  NDV_RETURN_IF_ERROR(reader->TakeI64(&stats->sample_rows));
  NDV_RETURN_IF_ERROR(reader->TakeI64(&stats->sample_distinct));
  NDV_RETURN_IF_ERROR(reader->TakeF64(&stats->estimate));
  NDV_RETURN_IF_ERROR(reader->TakeF64(&stats->lower));
  NDV_RETURN_IF_ERROR(reader->TakeF64(&stats->upper));
  NDV_RETURN_IF_ERROR(reader->TakeF64(&stats->coverage));
  NDV_RETURN_IF_ERROR(reader->TakeBool(&stats->degraded));
  NDV_RETURN_IF_ERROR(reader->TakeString(&stats->method));
  return Status::Ok();
}

StatsCatalog AnalyzeTable(const Table& table, const AnalyzeOptions& options) {
  if (options.exact) {
    // Ground-truth pass: exact NDV per column, no sampling. With at least
    // as many columns as workers, parallelize across columns (each scan
    // runs inline on its worker); otherwise scan columns one at a time and
    // let each scan split its rows over the pool. Either way the counts
    // are exact, so the catalog is bit-identical at every thread count.
    const int workers = ResolveThreadCount(options.threads);
    std::vector<ColumnStats> per_column(
        static_cast<size_t>(table.NumColumns()));
    const auto analyze_column = [&](int64_t c, int scan_threads) {
      per_column[static_cast<size_t>(c)] =
          ExactColumnStats(table, c, scan_threads);
    };
    if (table.NumColumns() >= workers) {
      ParallelFor(table.NumColumns(), workers,
                  [&](int64_t c) { analyze_column(c, 1); });
    } else {
      for (int64_t c = 0; c < table.NumColumns(); ++c) {
        analyze_column(c, workers);
      }
    }
    StatsCatalog catalog;
    for (ColumnStats& stats : per_column) catalog.Put(std::move(stats));
    return catalog;
  }

  const auto estimator = MakeEstimatorByName(options.estimator);
  NDV_CHECK_MSG(estimator != nullptr, "unknown estimator '%s'",
                options.estimator.c_str());
  // Pre-derive one RNG per column so the per-column work is independent
  // (and therefore parallelizable) while results stay identical to the
  // sequential order.
  Rng root(options.seed);
  std::vector<Rng> column_rngs;
  column_rngs.reserve(static_cast<size_t>(table.NumColumns()));
  for (int64_t c = 0; c < table.NumColumns(); ++c) {
    column_rngs.push_back(root.Fork());
  }

  std::vector<ColumnStats> per_column(
      static_cast<size_t>(table.NumColumns()));
  ParallelFor(table.NumColumns(), ResolveThreadCount(options.threads),
              [&](int64_t c) {
    if (table.column(c).size() == 0) {
      per_column[static_cast<size_t>(c)] = ExactColumnStats(table, c, 1);
      return;
    }
    const SampleSummary sample = SampleColumnFraction(
        table.column(c), options.sample_fraction,
        column_rngs[static_cast<size_t>(c)]);
    const GeeBounds bounds = ComputeGeeBounds(sample);
    ColumnStats stats;
    stats.column_name = table.column_name(c);
    stats.table_rows = sample.n();
    stats.sample_rows = sample.r();
    stats.sample_distinct = sample.d();
    stats.estimate = estimator->Estimate(sample);
    stats.lower = bounds.lower;
    stats.upper = bounds.upper;
    stats.method = options.estimator;
    // Every published AnalyzeResult carries a well-formed interval. The
    // point estimate of a non-GEE estimator may exceed the GEE UPPER on
    // degenerate profiles (DESIGN.md §11), but never undercuts LOWER = d.
    NDV_DCHECK_LE(stats.lower, stats.upper);
    NDV_DCHECK_GE(stats.estimate, stats.lower);
    per_column[static_cast<size_t>(c)] = std::move(stats);
  });

  StatsCatalog catalog;
  for (ColumnStats& stats : per_column) {
    catalog.Put(std::move(stats));
  }
  return catalog;
}

}  // namespace ndv
