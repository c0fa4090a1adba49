#include "datagen/zipf.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace ndv {
namespace {

// Number of classes for scale c: classes exist while c / i^z >= 0.5 (i.e.
// they would round to >= 1). Capped at max_classes, since a column of
// `rows` values can hold at most `rows` classes of frequency >= 1.
int64_t NumClassesForScale(double c, double z, int64_t max_classes) {
  const double d_real = std::pow(2.0 * c, 1.0 / z);
  if (!(d_real >= 1.0)) return 1;
  if (d_real >= static_cast<double>(max_classes)) return max_classes;
  return static_cast<int64_t>(d_real);
}

// Total rows produced by scale c: sum over i of max(1, round(c / i^z)).
// pow_i_z[i - 1] caches i^z across calls; it grows to the largest class
// count asked for.
int64_t TotalRowsForScale(double c, double z, int64_t max_classes,
                          std::vector<double>* pow_i_z) {
  int64_t total = 0;
  const int64_t d = NumClassesForScale(c, z, max_classes);
  for (auto i = static_cast<int64_t>(pow_i_z->size()) + 1; i <= d; ++i) {
    pow_i_z->push_back(std::pow(static_cast<double>(i), z));
  }
  for (int64_t i = 1; i <= d; ++i) {
    const double f = c / (*pow_i_z)[static_cast<size_t>(i - 1)];
    total += std::max<int64_t>(1, static_cast<int64_t>(std::llround(f)));
    if (total > (int64_t{1} << 61)) return total;  // Overflow guard.
  }
  return total;
}

}  // namespace

std::vector<int64_t> ZipfClassFrequencies(int64_t rows, double z) {
  NDV_CHECK(rows >= 1);
  NDV_CHECK(z >= 0.0);
  if (z == 0.0) {
    return std::vector<int64_t>(static_cast<size_t>(rows), 1);
  }
  // Binary search the scale c so the class frequencies sum to ~rows. The
  // search stops once the midpoint rounds onto an endpoint: from there a
  // step leaves lo and hi where they are (for rows = 1 it could still drop
  // hi onto lo, which yields the same single class).
  std::vector<double> pow_i_z;
  double lo = 0.5;
  double hi = static_cast<double>(rows);
  while (TotalRowsForScale(hi, z, rows, &pow_i_z) < rows) hi *= 2.0;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    if (TotalRowsForScale(mid, z, rows, &pow_i_z) < rows) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double c = hi;
  const int64_t d = NumClassesForScale(c, z, rows);
  std::vector<int64_t> freqs;
  freqs.reserve(static_cast<size_t>(d));
  int64_t total = 0;
  // Every value hi took was scored, so the cache already reaches d.
  NDV_DCHECK(static_cast<int64_t>(pow_i_z.size()) >= d);
  for (int64_t i = 1; i <= d; ++i) {
    const double f = c / pow_i_z[static_cast<size_t>(i - 1)];
    const int64_t ni = std::max<int64_t>(1, static_cast<int64_t>(std::llround(f)));
    freqs.push_back(ni);
    total += ni;
  }
  // The binary search guarantees total >= rows; shave the excess. First
  // shrink the largest class (never below the second-largest, to preserve
  // rank order), then drop whole tail classes, crediting any overshoot back
  // to the largest class.
  int64_t deficit = total - rows;
  NDV_CHECK(deficit >= 0);
  const int64_t floor1 = freqs.size() > 1 ? freqs[1] : 1;
  const int64_t take = std::min(deficit, freqs[0] - floor1);
  freqs[0] -= take;
  deficit -= take;
  while (deficit > 0 && freqs.size() > 1) {
    deficit -= freqs.back();
    freqs.pop_back();
  }
  if (deficit < 0) {
    freqs[0] += -deficit;
  } else if (deficit > 0) {
    // Only one class left; it must absorb the rest.
    NDV_CHECK(freqs[0] - deficit >= 1);
    freqs[0] -= deficit;
  }
  return freqs;
}

int64_t ZipfDistinctValues(const ZipfColumnOptions& options) {
  NDV_CHECK(options.rows >= 1);
  NDV_CHECK(options.dup_factor >= 1);
  NDV_CHECK(options.rows % options.dup_factor == 0);
  const int64_t base_rows = options.rows / options.dup_factor;
  return static_cast<int64_t>(
      ZipfClassFrequencies(base_rows, options.z).size());
}

std::unique_ptr<Int64Column> MakeZipfColumn(const ZipfColumnOptions& options) {
  NDV_CHECK(options.rows >= 1);
  NDV_CHECK(options.dup_factor >= 1);
  NDV_CHECK_MSG(options.rows % options.dup_factor == 0,
                "rows (%lld) must be a multiple of dup_factor (%lld)",
                static_cast<long long>(options.rows),
                static_cast<long long>(options.dup_factor));
  const int64_t base_rows = options.rows / options.dup_factor;
  const std::vector<int64_t> freqs = ZipfClassFrequencies(base_rows, options.z);
  std::vector<int64_t> values;
  values.reserve(static_cast<size_t>(options.rows));
  for (size_t i = 0; i < freqs.size(); ++i) {
    const int64_t copies = freqs[i] * options.dup_factor;
    values.insert(values.end(), static_cast<size_t>(copies),
                  static_cast<int64_t>(i + 1));
  }
  NDV_CHECK(static_cast<int64_t>(values.size()) == options.rows);
  switch (options.layout) {
    case RowLayout::kSorted:
      break;  // Already emitted in rank order.
    case RowLayout::kRandom: {
      Rng rng(options.seed);
      rng.Shuffle(values);
      break;
    }
    case RowLayout::kClustered: {
      NDV_CHECK(options.cluster_run >= 1);
      // Split the sorted column into fixed-length runs and shuffle the run
      // order; within a run values stay adjacent (page-local clustering).
      const int64_t run = options.cluster_run;
      const int64_t num_runs = (options.rows + run - 1) / run;
      std::vector<int64_t> run_order(static_cast<size_t>(num_runs));
      for (int64_t i = 0; i < num_runs; ++i) {
        run_order[static_cast<size_t>(i)] = i;
      }
      Rng rng(options.seed);
      rng.Shuffle(run_order);
      std::vector<int64_t> clustered;
      clustered.reserve(values.size());
      for (int64_t r : run_order) {
        const int64_t begin = r * run;
        const int64_t end = std::min(begin + run, options.rows);
        clustered.insert(clustered.end(),
                         values.begin() + static_cast<ptrdiff_t>(begin),
                         values.begin() + static_cast<ptrdiff_t>(end));
      }
      values = std::move(clustered);
      break;
    }
  }
  return std::make_unique<Int64Column>(std::move(values));
}

ZipfianGenerator::ZipfianGenerator(int64_t domain, double z) {
  NDV_CHECK(domain >= 1);
  NDV_CHECK(z >= 0.0);
  cdf_.resize(static_cast<size_t>(domain));
  double cumulative = 0.0;
  for (int64_t i = 0; i < domain; ++i) {
    cumulative += 1.0 / std::pow(static_cast<double>(i + 1), z);
    cdf_[static_cast<size_t>(i)] = cumulative;
  }
  const double total = cumulative;
  for (double& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // Guard against rounding drift.
}

int64_t ZipfianGenerator::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int64_t>(it - cdf_.begin());
}

}  // namespace ndv
