// Span tracing for the benchmark's traced run. Spans are recorded around
// the public calls into each ndv layer, from the benchmark's own code:
// name, start, end, parent span and the op they belong to. Each thread owns
// one Tracer (no locking); the run merges them and writes them out at the
// end. A layer's self time is its span's duration minus the time its child
// spans cover.
#ifndef NDV_PERFBENCH_TRACE_H_
#define NDV_PERFBENCH_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Aggregate {
    int64_t calls = 0;
    int64_t self_ns = 0;
    int64_t total_ns = 0;
  };

  explicit Tracer(int thread = 0) : thread_(thread) {}

  Tracer(Tracer&&) = default;
  Tracer& operator=(Tracer&&) = default;
  // Spans point at names owned by this tracer's aggregate map.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // RAII span. A null tracer records nothing, so call sites read the same
  // in the untraced run.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t op) : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->Begin(name, op);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  // A count recorded at a layer boundary.
  void Count(std::string_view name, int64_t delta);

  // Folds another thread's tracer into this one.
  void Merge(const Tracer& other);

  Aggregate Get(std::string_view name) const;
  int64_t Counter(std::string_view name) const;
  // Self time of `name` summed over its calls, divided by `per` and scaled
  // to `unit_ns` (1e6 = ms, 1e3 = us); 0 when `per` is 0.
  double SelfPer(std::string_view name, int64_t per, double unit_ns) const;

  // Writes aggregates, counters and the kept spans as JSON; `meta` is a
  // JSON object stamped at the top.
  bool WriteJson(const std::string& path, const std::string& meta) const;

 private:
  using AggregateMap = std::map<std::string, Aggregate, std::less<>>;

  struct Open {
    AggregateMap::iterator layer;
    uint64_t op;
    int64_t start_ns;
    int64_t child_ns;
    int64_t record;  // index into records_, or -1 when not kept
  };
  struct Record {
    const std::string* name;  // a key of aggregates_
    uint64_t op;
    int thread;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
  };
  // Raw spans kept per tracer; aggregates cover every span regardless.
  static constexpr size_t kMaxRecords = 20000;

  void Begin(std::string_view name, uint64_t op);
  AggregateMap::iterator Layer(std::string_view name);
  void End();

  int thread_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  AggregateMap aggregates_;
  std::map<std::string, int64_t, std::less<>> counters_;
};

}  // namespace perfbench

#endif  // NDV_PERFBENCH_TRACE_H_
