// ndv_perfbench: one end-to-end benchmark of ndv, three workloads.
//
//   ndv_perfbench --workload analyze|serve|ingest --seed N --seconds S
//                 --trace 0|1 [--size full|tiny] [--work-dir DIR]
//                 [--trace-out FILE] [--git-sha SHA]
//
// Prints one `metric <name> = <value> <unit>` line per metric, a
// `perfbench-meta` stamp, and as its last line the JSON result
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones from the
// traced run. perfbench/run.py builds this binary and runs it.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <thread>

#include "bench.h"
#include "common/simd_hash.h"

namespace perfbench {

namespace {

std::atomic<int> reported_failures{0};

void ReportFailure(const char* kind, const std::string& why) {
  // The first few reasons are enough to debug; the counts carry the rest.
  if (reported_failures.fetch_add(1) < 10) {
    std::fprintf(stderr, "perfbench: %s: %s\n", kind, why.c_str());
  }
}

}  // namespace

void WorkloadResult::FailOp(const std::string& why) {
  ++failed;
  ReportFailure("failed op", why);
}

void WorkloadResult::FailCheck(const std::string& why) {
  ++failed;
  ++failed_checks;
  ReportFailure("failed check", why);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t CpuNs(clockid_t clock) {
  timespec now{};
  clock_gettime(clock, &now);
  return static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

void PinToCpu(int index) {
  const int cpu =
      static_cast<int>(std::thread::hardware_concurrency()) - 1 - index;
  if (cpu < 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// One random cycle through 2^21 slots (8 MB), built once and shared
// read-only by every gauge.
const std::vector<uint32_t>& GaugeChain() {
  static const std::vector<uint32_t> chain = [] {
    constexpr uint32_t kSlots = 1u << 21;
    std::vector<uint32_t> order(kSlots);
    std::iota(order.begin(), order.end(), 0u);
    uint64_t state = 1;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      state = Mix(state + i);
      std::swap(order[i], order[state % (i + 1)]);
    }
    std::vector<uint32_t> next(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      next[order[i]] = order[(i + 1) % kSlots];
    }
    return next;
  }();
  return chain;
}

}  // namespace

SpeedGauge::SpeedGauge() : table_(1 << 15), deltas_(1 << 16) {
  for (size_t i = 0; i < deltas_.size(); ++i) {
    deltas_[i] = static_cast<int64_t>(Mix(i) & 7);
  }
  GaugeChain();
}

// Every run does exactly the same work (fixed keys, fixed start), so only
// the machine changes its time.
int64_t SpeedGauge::RunKernel() {
  constexpr uint64_t kKeys = 8192;
  constexpr int kDecodes = 2;
  constexpr int kLoads = 256;
  const std::vector<uint32_t>& chain = GaugeChain();
  const int64_t start = ThreadCpuNs();
  std::fill(table_.begin(), table_.end(), 0);
  const size_t mask = table_.size() - 1;
  uint64_t acc = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t i = 0; i < kKeys; ++i) {
      const uint64_t key = Mix(i) | 1;
      size_t slot = key & mask;
      while (table_[slot] != 0 && table_[slot] != key) {
        slot = (slot + 1) & mask;
      }
      table_[slot] = key;
      acc += slot;
    }
  }
  for (int pass = 0; pass < kDecodes; ++pass) {
    int64_t run = pass;
    for (const int64_t delta : deltas_) {
      run += delta;
      acc ^= static_cast<uint64_t>(run);
    }
  }
  uint32_t slot = 0;
  for (int i = 0; i < kLoads; ++i) slot = chain[slot];
  sink_ += acc + slot;
  return ThreadCpuNs() - start;
}

void SpeedGauge::Measure() {
  RunKernel();
  std::vector<double> runs;
  for (int i = 0; i < kRuns; ++i) {
    runs.push_back(static_cast<double>(RunKernel()));
  }
  scales_.push_back(kReferenceNs /
                    std::max(1.0, Percentile(std::move(runs), 50.0)));
}

double SpeedGauge::ScaleAt(size_t index) const {
  if (scales_.empty()) return 1.0;
  const size_t first = index > kWindow / 2 ? index - kWindow / 2 : 0;
  const size_t end = std::min(scales_.size(), index + kWindow / 2 + 1);
  return Percentile(std::vector<double>(scales_.begin() + first,
                                        scales_.begin() + end),
                    50.0);
}

double SpeedGauge::MedianScale() const {
  return scales_.empty() ? 1.0 : Percentile(scales_, 50.0);
}

std::vector<double> TimedOps::Reference(const SpeedGauge& gauge) const {
  std::vector<double> out(ms.size());
  for (size_t i = 0; i < ms.size(); ++i) {
    out[i] = ms[i] * gauge.ScaleAt(reading[i]);
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void QualityScore::Score(const ndv::ColumnStats& stats, double truth) {
  const double estimate = stats.estimate;
  q_errors_.push_back(std::max(estimate / truth, truth / estimate));
  widths_.push_back((stats.upper - stats.lower) / truth);
  if (stats.lower <= truth && truth <= stats.upper) ++hits_;
}

void QualityScore::Report(WorkloadResult& result) const {
  result.Add("q_error_max",
             q_errors_.empty()
                 ? 0.0
                 : *std::max_element(q_errors_.begin(), q_errors_.end()),
             "ratio");
  result.Add("q_error_p50", Percentile(q_errors_, 50.0), "ratio");
  result.Add("bracket_hit_share",
             q_errors_.empty() ? 0.0
                               : static_cast<double>(hits_) /
                                     static_cast<double>(q_errors_.size()),
             "share");
  result.Add("bracket_width_p50", Percentile(widths_, 50.0), "ratio");
}

void ReportOps(WorkloadResult& result, const std::vector<double>& op_ms,
               double ops, double cpu_seconds) {
  result.Add("op_ms_p50", Percentile(op_ms, 50.0), "ms");
  result.Add("op_ms_p90", Percentile(op_ms, 90.0), "ms");
  result.Add("ops_per_cpu_s", ops / cpu_seconds, "1/s");
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return bytes;
}

void ResetDirectory(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

namespace {

// The workload-level names of the generic end-to-end metrics.
// The JSON result keeps the generic names (every workload reports every
// metric); these lines print each workload's metrics as users read them.
struct Alias {
  const char* workload;
  const char* metric;
  const char* name;
  double scale;
  const char* unit;
};

constexpr Alias kAliases[] = {
    {"analyze", "op_ms_p50", "analyze_ms_p50", 1.0, "ms"},
    {"analyze", "op_ms_p90", "analyze_ms_p90", 1.0, "ms"},
    {"serve", "op_ms_p50", "get_stats_us_p50", 1e3, "us"},
    {"serve", "op_ms_p90", "get_stats_us_p90", 1e3, "us"},
    {"serve", "ops_per_cpu_s", "serve_req_per_cpu_s", 1.0, "req/s"},
    {"ingest", "op_ms_p50", "append_us_p50", 1e3, "us"},
    {"ingest", "op_ms_p90", "append_us_p90", 1e3, "us"},
    {"ingest", "ops_per_cpu_s", "ingest_rows_per_cpu_s", 1e3, "rows/s"},
};

// Every per-layer metric, in the order BENCHMARK.json lists them.
struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"trace.overhead_pct", "%"},
    {"storage.load_ms", "ms"},
    {"storage.pack_bytes", "bytes"},
    {"storage.materialize_ms", "ms"},
    {"sample.draw_ms", "ms"},
    {"table.summarize_ms.key", "ms"},
    {"table.summarize_ms.score", "ms"},
    {"table.summarize_ms.label", "ms"},
    {"table.summarize_ms.item", "ms"},
    {"table.rows_gathered", "count"},
    {"profile.sample_distinct", "count"},
    {"profile.f1", "count"},
    {"core.estimate_us", "us"},
    {"catalog.journal_ms", "ms"},
    {"catalog.wal_bytes_per_publish", "bytes"},
    {"catalog.publish_us", "us"},
    {"serve.encode_ns", "ns"},
    {"serve.decode_ns", "ns"},
    {"serve.submit_us", "us"},
    {"serve.transport_wait_us", "us"},
    {"serve.frame_bytes", "bytes"},
    {"serve.shed", "count"},
    {"serve.stale_replies", "count"},
    {"serve.get_stats_us_p99", "us"},
    {"serve.get_stats_us_p999", "us"},
    {"ingest.append_self_us", "us"},
    {"ingest.reanalyze_ms", "ms"},
    {"ingest.drift_fires", "count"},
    {"ingest.reanalyzes", "count"},
    {"ingest.reanalyze_failures", "count"},
    {"ingest.publications", "count"},
    {"ingest.useful_reanalyze_share", "share"},
    {"ingest.useful_publication_share", "share"},
};

std::string Escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "ndv_perfbench: %s\nusage: ndv_perfbench --workload "
               "analyze|serve|ingest --seed N --seconds S --trace 0|1 "
               "[--size full|tiny] [--work-dir DIR] [--trace-out FILE] "
               "[--git-sha SHA]\n",
               message);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("flags are --name value pairs");
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("flags are --name value pairs");
  const auto flag = [&](const char* name, const char* fallback) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string(fallback) : it->second;
  };

  RunConfig config;
  config.workload = flag("workload", "");
  config.seed = std::strtoull(flag("seed", "1").c_str(), nullptr, 10);
  config.seconds = std::atof(flag("seconds", "10").c_str());
  config.trace = flag("trace", "0") == "1";
  config.tiny = flag("size", "full") == "tiny";
  config.work_dir = flag("work-dir", ".bench_build/work");
  config.trace_out = flag("trace-out", "");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  WorkloadResult result;
  if (config.workload == "analyze") {
    ResetDirectory(config.work_dir);
    result = RunAnalyze(config);
  } else if (config.workload == "serve") {
    ResetDirectory(config.work_dir);
    result = RunServe(config);
  } else if (config.workload == "ingest") {
    ResetDirectory(config.work_dir);
    result = RunIngest(config);
  } else {
    return Usage("unknown --workload");
  }
  std::filesystem::remove_all(config.work_dir);
  if (config.trace) {
    for (const auto& [name, value] : result.layers) {
      const bool known = std::any_of(
          std::begin(kLayerMetrics), std::end(kLayerMetrics),
          [&](const LayerMetric& m) { return name == m.name; });
      if (!known) result.FailCheck("unlisted per-layer metric " + name);
    }
    result.metrics.clear();
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = result.layers.find(m.name);
      result.Add(m.name, it == result.layers.end() ? 0.0 : it->second,
                 m.unit);
    }
  } else {
    result.Add("rss_peak_mb", PeakRssMb(), "MB");
  }

  std::string meta = "{\"workload\": \"" + Escape(config.workload) +
                     "\", \"seed\": " + std::to_string(config.seed) +
                     ", \"seconds\": " + Number(config.seconds) +
                     ", \"trace\": " + (config.trace ? "1" : "0") +
                     ", \"size\": \"" + (config.tiny ? "tiny" : "full") +
                     "\", \"git_sha\": \"" +
                     Escape(flag("git-sha", "unknown")) +
                     "\", \"build_type\": \"" NDV_PERFBENCH_BUILD_TYPE
                     "\", \"simd_level\": \"" +
                     ndv::SimdLevelName(ndv::ActiveSimdLevel()) +
                     "\", \"nproc\": " +
                     std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"ops\": {";
  for (size_t i = 0; i < result.counts.size(); ++i) {
    meta += (i == 0 ? "\"" : ", \"") + result.counts[i].first +
            "\": " + std::to_string(result.counts[i].second);
  }
  meta += "}}";
  std::printf("perfbench-meta %s\n", meta.c_str());
  if (config.trace && !config.trace_out.empty()) {
    if (result.trace.WriteJson(config.trace_out, meta)) {
      std::printf("perfbench-trace %s\n", config.trace_out.c_str());
    } else {
      result.FailCheck("cannot write " + config.trace_out);
    }
  }

  for (Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.FailCheck(metric.name + " is not finite");
      metric.value = 0.0;
    }
    std::printf("metric %s = %s %s\n", metric.name.c_str(),
                Number(metric.value).c_str(), metric.unit.c_str());
    for (const Alias& alias : kAliases) {
      if (config.workload == alias.workload && metric.name == alias.metric) {
        std::printf("metric %s = %s %s\n", alias.name,
                    Number(metric.value * alias.scale).c_str(), alias.unit);
      }
    }
    if (metric.name == "bracket_hit_share" && config.workload != "serve") {
      std::printf("metric bracket_miss_share = %s share\n",
                  Number(1.0 - metric.value).c_str());
    }
  }
  for (const Metric& metric : result.extra) {
    std::printf("metric %s = %s %s\n", metric.name.c_str(),
                Number(metric.value).c_str(), metric.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.failed_checks == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) +
          ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            Number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
