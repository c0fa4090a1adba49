// Shared pieces of the end-to-end benchmark program: run configuration,
// the result every workload returns, timing and quality helpers.
#ifndef NDV_PERFBENCH_BENCH_H_
#define NDV_PERFBENCH_BENCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "catalog/stats_catalog.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs for the self-check; the full size is the benchmark's own.
  bool tiny = false;
  std::string work_dir;   // scratch files of this run (pack, WAL)
  std::string trace_out;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run produced. `metrics` are the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one; `counts` are
// the op counts stamped on the result.
struct WorkloadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t failed_checks = 0;
  std::vector<Metric> metrics;
  // Printed with the metrics but not part of the JSON result.
  std::vector<Metric> extra;
  std::vector<std::pair<std::string, int64_t>> counts;
  // Per-layer values a traced run measured, by per-layer metric name; main()
  // reports every per-layer metric, 0 where the workload's path does not
  // reach that layer.
  std::map<std::string, double> layers;
  // The traced run's merged spans, written out by main().
  Tracer trace;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // An operation that returned an error status or was shed.
  void FailOp(const std::string& why);
  // An output that did not pass its check; also a failed operation.
  void FailCheck(const std::string& why);
};

using SteadyClock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

// CPU time of a clock (a thread's or the process's), in ns. CPU time
// leaves out the time a thread waits: for I/O, for a CPU the scheduler
// gave to another thread, or for the hypervisor (steal time).
int64_t CpuNs(clockid_t clock);
inline int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }
inline int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }

// Linear-interpolated percentile (p in [0, 100]); 0 for an empty input.
double Percentile(std::vector<double> values, double p);

// SplitMix64 of (seed, stream): independent per-purpose seeds.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// Peak resident set of this process, in MB.
double PeakRssMb();

// Pins the calling thread to the `index`-th CPU counted from the top. CPU
// 0, which takes most system work, is never used.
void PinToCpu(int index);

// The speed of the machine, measured with a fixed reference kernel that
// belongs to the benchmark: hashing into an open-addressing table, a
// sequential delta decode and a short walk of dependent loads through an
// 8 MB buffer, the kinds of work the workloads do. On a shared host a
// CPU's speed changes from run to run (clock frequency, a busy sibling
// hyperthread, cache pressure) by more than a program change should be
// allowed to, and it changes within a run too, in phases of seconds. A run
// takes readings spread over its timed work, each kReferenceNs over the
// kernel's CPU time. A time multiplied by a reading is in reference time:
// the time it would take on a machine where one kernel run takes
// kReferenceNs of CPU time. One reading is noisy (it sees a millisecond),
// so each timed op is scaled by the median of the kWindow readings around
// the one taken just before it: ScaleAt(Latest()) when the op is timed.
class SpeedGauge {
 public:
  // The kernel's median thread-CPU time on a 4-vCPU KVM guest of an Intel
  // Xeon (AVX-512) host, ~2.3 GHz effective; reference times read close to
  // that machine's own times.
  static constexpr double kReferenceNs = 240e3;

  SpeedGauge();

  // One reading: the kernel once to warm the caches, then kRuns times timed
  // on the calling thread; records kReferenceNs over their median CPU time.
  void Measure();
  // The latest reading, which a time measured now pairs with; 0 before the
  // first.
  size_t Latest() const { return scales_.empty() ? 0 : scales_.size() - 1; }
  // Median of the readings within kWindow / 2 of reading `index`; 1
  // without readings. Call it after the run, when the readings that follow
  // `index` have been taken too.
  double ScaleAt(size_t index) const;
  // Median of every reading; 1 without readings.
  double MedianScale() const;

 private:
  static constexpr int kRuns = 5;
  static constexpr size_t kWindow = 9;
  int64_t RunKernel();

  std::vector<uint64_t> table_;
  std::vector<int64_t> deltas_;
  uint64_t sink_ = 0;
  std::vector<double> scales_;
};

// Times measured on one thread, each with the gauge reading it pairs with.
struct TimedOps {
  std::vector<double> ms;
  std::vector<size_t> reading;

  void Add(double op_ms, const SpeedGauge& gauge) {
    ms.push_back(op_ms);
    reading.push_back(gauge.Latest());
  }
  // Every time in reference time.
  std::vector<double> Reference(const SpeedGauge& gauge) const;
};

// Runs `setup` at least kSetupReps times, and more (up to four times as
// many) while the set-ups have taken less than kSetupSeconds in all, so a
// cheap set-up is timed often enough for a steady median. Each set-up is
// timed in process CPU time, with gauge readings taken between them.
// Returns the median in reference seconds. Each call must rebuild the
// workload's state from scratch.
inline constexpr int kSetupReps = 5;
inline constexpr double kSetupSeconds = 1.0;

template <typename F>
double MedianSetupSeconds(SpeedGauge& gauge, F&& setup) {
  std::vector<double> seconds;
  std::vector<size_t> readings;
  double total = 0.0;
  while (static_cast<int>(seconds.size()) < kSetupReps ||
         (total < kSetupSeconds &&
          static_cast<int>(seconds.size()) < 4 * kSetupReps)) {
    for (int i = 0; i < 3; ++i) gauge.Measure();
    const int64_t start = NowNs();
    const int64_t cpu_start = ProcessCpuNs();
    setup();
    seconds.push_back(static_cast<double>(ProcessCpuNs() - cpu_start) * 1e-9);
    readings.push_back(gauge.Latest());
    total += static_cast<double>(NowNs() - start) * 1e-9;
  }
  for (size_t i = 0; i < seconds.size(); ++i) {
    seconds[i] *= gauge.ScaleAt(readings[i]);
  }
  return Percentile(std::move(seconds), 50.0);
}

// Scores published statistics against the exact distinct count.
class QualityScore {
 public:
  void Score(const ndv::ColumnStats& stats, double truth);
  // q_error_max, q_error_p50, bracket_hit_share, bracket_width_p50.
  void Report(WorkloadResult& result) const;
  int64_t scored() const { return static_cast<int64_t>(q_errors_.size()); }
  int64_t hits() const { return hits_; }

 private:
  std::vector<double> q_errors_;
  std::vector<double> widths_;
  int64_t hits_ = 0;
};

// Latency and cost of the workload's user-visible operation, in reference
// time: op_ms_p50, op_ms_p90, and ops_per_cpu_s, `ops` over `cpu_seconds`
// (ops per reference CPU second, the throughput one CPU sustains).
void ReportOps(WorkloadResult& result, const std::vector<double>& op_ms,
               double ops, double cpu_seconds);

// AnalyzeTable made of the public calls it makes (forked per-column Rng ->
// SampleWithoutReplacementFloyd -> SummarizeRows -> ComputeGeeBounds +
// Estimate), with a span around each layer: sample.draw, the per-column
// name in `summarize_spans`, core.estimate. Bit-identical to AnalyzeTable.
ndv::StatsCatalog TracedAnalyzeTable(
    const ndv::Table& table, const ndv::AnalyzeOptions& options,
    const std::vector<std::string>& summarize_spans, Tracer& tracer,
    uint64_t op);

// Sum of the sizes of the regular files under `dir`.
int64_t DirectoryBytes(const std::string& dir);

// Removes and recreates `dir`.
void ResetDirectory(const std::string& dir);

WorkloadResult RunAnalyze(const RunConfig& config);
WorkloadResult RunServe(const RunConfig& config);
WorkloadResult RunIngest(const RunConfig& config);

}  // namespace perfbench

#endif  // NDV_PERFBENCH_BENCH_H_
