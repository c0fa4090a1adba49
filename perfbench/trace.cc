#include "trace.h"

#include <cstdio>
#include <fstream>

#include "bench.h"

namespace perfbench {

Tracer::AggregateMap::iterator Tracer::Layer(std::string_view name) {
  auto it = aggregates_.find(name);
  if (it == aggregates_.end()) {
    it = aggregates_.emplace(std::string(name), Aggregate{}).first;
  }
  return it;
}

void Tracer::Begin(std::string_view name, uint64_t op) {
  const auto layer = Layer(name);
  int64_t record = -1;
  if (records_.size() < kMaxRecords) {
    record = static_cast<int64_t>(records_.size());
    records_.push_back({&layer->first, op, thread_, 0, 0,
                        stack_.empty() ? -1 : stack_.back().record});
  }
  stack_.push_back({layer, op, NowNs(), 0, record});
}

void Tracer::End() {
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = end - open.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.record >= 0) {
    Record& record = records_[static_cast<size_t>(open.record)];
    record.start_ns = open.start_ns;
    record.end_ns = end;
  }
  Aggregate& aggregate = open.layer->second;
  ++aggregate.calls;
  aggregate.self_ns += duration - open.child_ns;
  aggregate.total_ns += duration;
}

void Tracer::Count(std::string_view name, int64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.emplace(name, 0).first;
  it->second += delta;
}

void Tracer::Merge(const Tracer& other) {
  for (const auto& [name, add] : other.aggregates_) {
    Aggregate& into = Layer(name)->second;
    into.calls += add.calls;
    into.self_ns += add.self_ns;
    into.total_ns += add.total_ns;
  }
  for (const auto& [name, add] : other.counters_) counters_[name] += add;
  // Names and parent indices are rebased onto this tracer.
  const auto base = static_cast<int64_t>(records_.size());
  for (Record record : other.records_) {
    if (records_.size() >= kMaxRecords) break;
    record.name = &Layer(*record.name)->first;
    if (record.parent >= 0) record.parent += base;
    records_.push_back(record);
  }
}

Tracer::Aggregate Tracer::Get(std::string_view name) const {
  const auto it = aggregates_.find(name);
  return it == aggregates_.end() ? Aggregate{} : it->second;
}

int64_t Tracer::Counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double Tracer::SelfPer(std::string_view name, int64_t per,
                       double unit_ns) const {
  if (per <= 0) return 0.0;
  return static_cast<double>(Get(name).self_ns) /
         static_cast<double>(per) / unit_ns;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& meta) const {
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = 0;
  for (const Record& record : records_) {
    if (origin == 0 || (record.start_ns != 0 && record.start_ns < origin)) {
      origin = record.start_ns;
    }
  }
  out << "{\"meta\": " << meta << ",\n \"layers\": {";
  const char* sep = "";
  for (const auto& [name, agg] : aggregates_) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n  \"%s\": {\"calls\": %lld, \"self_ms\": %.6f, "
                  "\"total_ms\": %.6f}",
                  sep, name.c_str(), static_cast<long long>(agg.calls),
                  static_cast<double>(agg.self_ns) * 1e-6,
                  static_cast<double>(agg.total_ns) * 1e-6);
    out << line;
    sep = ",";
  }
  out << "},\n \"counters\": {";
  sep = "";
  for (const auto& [name, value] : counters_) {
    out << sep << "\n  \"" << name << "\": " << value;
    sep = ",";
  }
  out << "},\n \"spans_columns\": [\"name\", \"op\", \"thread\", "
         "\"start_ns\", \"end_ns\", \"parent\"],\n \"spans\": [";
  sep = "";
  for (const Record& record : records_) {
    out << sep << "\n  [\"" << *record.name << "\", " << record.op << ", "
        << record.thread << ", " << record.start_ns - origin << ", "
        << record.end_ns - origin << ", " << record.parent << "]";
    sep = ",";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
