// Workload `serve`: a StatsService over a 16-column heap table, journaled
// to a DurableCatalog (fsync every record) and reached through
// SocketServer/ConnectSocket on loopback.
//
//   readers  2 connections, closed loop: StatsClient::GetStats of a
//            Zipf(1)-drawn column; 1% of requests are List.
//   writer   1 connection, closed loop with think time, one op every
//            kWriterPeriodMs: ObserveInserts of a batch of novel values
//            into a column whose published bracket is exact (so the batch
//            makes it stale), then Analyze(force=false), so that
//            re-ANALYZE, journal and publish run beside the reads. The
//            fixed pace keeps the number of writes in a run, and the
//            tracker memory they add, independent of the machine's speed.
//
// Times are reported in reference time (bench.h, SpeedGauge): each client
// thread reads a gauge on its connection's CPU. A GET_STATS round trip is
// timed on the wall clock; the readers' cost per request and a writer op
// are timed in the CPU time of the client thread plus the server thread of
// its connection.
//
// Clients make one attempt per call: a shed (UNAVAILABLE) is a failure,
// not a silent retry. The traced run serves each connection with the
// public calls ServeConnection makes (Receive -> DecodeMessage -> Submit ->
// EncodeMessage -> Send), with a span around each.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "catalog/durable_catalog.h"
#include "common/random.h"
#include "datagen/zipf.h"
#include "serve/protocol.h"
#include "serve/socket_transport.h"
#include "serve/stats_service.h"

namespace perfbench {
namespace {

constexpr int kColumns = 16;
constexpr int kReaders = 2;
constexpr int kWriterBatch = 8192;
constexpr int kWriterColumns = 4;
constexpr int kWriterPeriodMs = 25;
constexpr int64_t kGaugeEvery = 16384;
constexpr int64_t kWriterGaugeEvery = 16;

struct ServeState {
  std::vector<std::string> names;
  std::vector<double> truth;
  std::vector<std::string> writer_columns;
  std::string wal_dir;
  // Declared before the service, which journals into it.
  std::unique_ptr<ndv::DurableCatalog> durable;
  std::unique_ptr<ndv::StatsService> service;
  std::unique_ptr<ndv::SocketServer> server;
};

// Set-up `rep` analyzes with its own seed. The first publications of the
// first kSetupReps set-ups are scored, so q-errors cover kSetupReps x 16
// columns however many set-ups the run times.
std::optional<ServeState> SetUp(const RunConfig& config, int rep,
                                QualityScore& quality,
                                WorkloadResult& result) {
  ServeState state;
  const int64_t rows = config.tiny ? 20000 : 200000;
  constexpr double kSkew[] = {0.0, 0.5, 1.0, 1.5};
  constexpr int64_t kDup[] = {1, 4, 25, 500};
  auto table = std::make_shared<ndv::Table>();
  for (int c = 0; c < kColumns; ++c) {
    ndv::ZipfColumnOptions options;
    options.rows = rows;
    options.z = kSkew[c % 4];
    options.dup_factor = kDup[c / 4];
    options.seed = DeriveSeed(config.seed, 200 + static_cast<uint64_t>(c));
    char name[8];
    std::snprintf(name, sizeof name, "c%02d", c);
    state.names.push_back(name);
    auto column = ndv::MakeZipfColumn(options);
    state.truth.push_back(
        static_cast<double>(ndv::ExactDistinctHashSet(*column, 1)));
    table->AddColumn(name, std::move(column));
  }

  state.wal_dir = config.work_dir + "/wal";
  std::filesystem::remove_all(state.wal_dir);
  ndv::DurableCatalogOptions durable_options;
  durable_options.dir = state.wal_dir;
  durable_options.fsync = ndv::FsyncPolicy::kEveryRecord;
  auto durable = ndv::DurableCatalog::Open(durable_options);
  if (!durable.ok()) {
    result.FailOp("DurableCatalog::Open: " + durable.status().ToString());
    return std::nullopt;
  }
  state.durable = *std::move(durable);

  ndv::StatsServiceOptions options;
  options.analyze.sample_fraction = 0.01;
  options.analyze.seed =
      DeriveSeed(config.seed, 10 + static_cast<uint64_t>(rep));
  options.analyze.estimator = "AE";
  options.analyze.threads = 1;
  options.durable = state.durable.get();
  state.service = std::make_unique<ndv::StatsService>(std::move(table),
                                                      std::move(options));
  // The writer feeds the kWriterColumns columns with the narrowest published
  // brackets. Each batch's novel values move the column's sketch further
  // than its bracket is wide, which makes it stale (Rule 2, DESIGN.md §13).
  std::vector<ndv::ColumnStats> published =
      state.service->Snapshot()->catalog.entries();
  if (published.size() != state.names.size()) {
    result.FailCheck("the first publication is missing columns");
    return std::nullopt;
  }
  for (size_t c = 0; rep < kSetupReps && c < published.size(); ++c) {
    quality.Score(published[c], state.truth[c]);
  }
  std::stable_sort(published.begin(), published.end(),
                   [](const ndv::ColumnStats& a, const ndv::ColumnStats& b) {
                     return a.upper - a.lower < b.upper - b.lower;
                   });
  for (int c = 0; c < kWriterColumns; ++c) {
    const ndv::ColumnStats& stats = published[static_cast<size_t>(c)];
    if (stats.upper - stats.lower > kWriterBatch / 2) {
      result.FailCheck("column " + stats.column_name +
                       " has too wide a bracket for the writer's batch");
      return std::nullopt;
    }
    state.writer_columns.push_back(stats.column_name);
  }

  auto server = ndv::SocketServer::Listen(0);
  if (!server.ok()) {
    result.FailOp("SocketServer::Listen: " + server.status().ToString());
    return std::nullopt;
  }
  state.server = *std::move(server);
  return state;
}

// Span names of one server connection.
struct ServerSpans {
  const char* decode;
  const char* submit;
  const char* encode;
  const char* send;
};
constexpr ServerSpans kReaderSpans = {"serve.decode", "serve.submit",
                                      "serve.encode", "serve.send"};
constexpr ServerSpans kWriterSpans = {"serve.writer.decode",
                                      "serve.writer.submit",
                                      "serve.writer.encode",
                                      "serve.writer.send"};

// ServeConnection, made of the public calls it makes, with spans. Ops are
// numbered per connection; the client numbers its calls the same way
// (closed loop), so spans of one request share an op id on both sides.
void TracedServeConnection(ndv::Transport& transport,
                           ndv::StatsService& service,
                           const ServerSpans& spans, uint64_t connection,
                           Tracer& tracer) {
  for (uint64_t seq = 0;; ++seq) {
    auto payload = transport.Receive(0);
    if (!payload.ok()) return;
    const uint64_t op = connection << 40 | seq;
    ndv::StatusOr<ndv::Message> request = [&] {
      Tracer::Scope span(&tracer, spans.decode, op);
      return ndv::DecodeMessage(*payload);
    }();
    ndv::Message reply;
    {
      Tracer::Scope span(&tracer, spans.submit, op);
      reply = request.ok() ? service.Submit(*request)
                           : ndv::ErrorMessage(request.status());
    }
    if (reply.type == ndv::MessageType::kError &&
        reply.error_code == ndv::StatusCode::kUnavailable) {
      tracer.Count("serve.shed", 1);
    }
    if (reply.type == ndv::MessageType::kStatsReply && reply.stale) {
      tracer.Count("serve.stale_replies", 1);
    }
    std::string frame;
    {
      Tracer::Scope span(&tracer, spans.encode, op);
      frame = ndv::EncodeMessage(reply);
    }
    if (&spans == &kReaderSpans) {
      tracer.Count("serve.frame_bytes", static_cast<int64_t>(frame.size()));
    }
    Tracer::Scope span(&tracer, spans.send, op);
    if (!transport.Send(std::move(frame)).ok()) return;
  }
}

// A uniform sample (Algorithm R) of at most kCapacity round-trip times, so
// that memory, and with it rss_peak_mb, does not grow with the number of
// requests a run completes.
class LatencySample {
 public:
  static constexpr size_t kCapacity = 1 << 18;

  explicit LatencySample(uint64_t seed) : rng_(seed) {}

  void Add(double ms, const SpeedGauge& gauge) {
    ++seen_;
    if (sample_.ms.size() < kCapacity) {
      sample_.Add(ms, gauge);
      return;
    }
    const uint64_t slot = rng_.NextBounded(seen_);
    if (slot < kCapacity) {
      sample_.ms[slot] = ms;
      sample_.reading[slot] = gauge.Latest();
    }
  }
  const TimedOps& sample() const { return sample_; }

 private:
  ndv::Rng rng_;
  uint64_t seen_ = 0;
  TimedOps sample_;
};

// What one client thread saw, in wall or CPU times as measured, and the
// gauge it read on its connection's CPU.
struct ClientLog {
  WorkloadResult result;  // attempted/failed only
  SpeedGauge gauge;
  LatencySample get_stats_ms{0};
  TimedOps refresh_ms;
  TimedOps cpu_ms;  // readers: client + server thread, between readings
  int64_t stale_replies = 0;
  std::vector<double> wal_bytes;  // journal growth of each traced refresh
  Tracer tracer;
};

ndv::StatsClientOptions OneAttempt() {
  ndv::StatsClientOptions options;
  options.retry.max_attempts = 1;
  options.attempt_timeout_ms = 10000;
  return options;
}

// CPU time of this thread plus the connection's server thread.
int64_t ConnectionCpuNs(clockid_t server_clock) {
  return ThreadCpuNs() + CpuNs(server_clock);
}

void RunReader(ServeState& state, ndv::Transport& transport, uint64_t seed,
               uint64_t connection, clockid_t server_clock, int64_t deadline,
               bool traced, ClientLog& log) {
  ndv::StatsClient client(transport, OneAttempt());
  ndv::Rng rng(seed);
  const ndv::ZipfianGenerator zipf(kColumns, 1.0);
  Tracer* tracer = traced ? &log.tracer : nullptr;
  SpeedGauge& gauge = log.gauge;
  uint64_t last_epoch = 0;
  // CPU is taken over the windows between gauge readings, so the gauge's
  // own CPU stays out.
  const auto window_ms = [&](int64_t since) {
    return static_cast<double>(ConnectionCpuNs(server_clock) - since) * 1e-6;
  };
  gauge.Measure();
  int64_t window_start = ConnectionCpuNs(server_clock);
  for (uint64_t seq = 0; NowNs() < deadline; ++seq) {
    if (seq > 0 && seq % kGaugeEvery == 0) {
      log.cpu_ms.Add(window_ms(window_start), gauge);
      gauge.Measure();
      window_start = ConnectionCpuNs(server_clock);
    }
    const uint64_t op = connection << 40 | seq;
    ++log.result.attempted;
    if (rng.NextBounded(100) == 0) {
      Tracer::Scope span(tracer, "serve.round_trip", op);
      auto columns = client.List();
      if (!columns.ok()) {
        log.result.FailOp("List: " + columns.status().ToString());
      } else if (columns->size() != state.names.size()) {
        log.result.FailCheck("List returned the wrong column count");
      }
      continue;
    }
    const std::string& column =
        state.names[static_cast<size_t>(zipf.Sample(rng))];
    const int64_t start = NowNs();
    ndv::StatusOr<ndv::StatsClient::StatsResult> reply = [&] {
      Tracer::Scope span(tracer, "serve.round_trip", op);
      return client.GetStats(column);
    }();
    const int64_t end = NowNs();
    if (!reply.ok()) {
      log.result.FailOp("GetStats: " + reply.status().ToString());
      continue;
    }
    log.get_stats_ms.Add(static_cast<double>(end - start) * 1e-6, gauge);
    if (reply->stale) ++log.stale_replies;
    if (reply->stats.column_name != column ||
        !(reply->stats.lower <= reply->stats.upper)) {
      log.result.FailCheck("GetStats(" + column +
                           ") answered another column or LOWER > UPPER");
    }
    if (reply->epoch < last_epoch) {
      log.result.FailCheck("epoch went backwards on a reader connection");
    }
    last_epoch = reply->epoch;
  }
  log.cpu_ms.Add(window_ms(window_start), gauge);
}

void RunWriter(ServeState& state, ndv::Transport& transport, uint64_t seed,
               uint64_t connection, clockid_t server_clock, int64_t deadline,
               bool traced, ClientLog& log) {
  ndv::StatsClient client(transport, OneAttempt());
  Tracer* tracer = traced ? &log.tracer : nullptr;
  SpeedGauge& gauge = log.gauge;
  uint64_t novel = seed;
  uint64_t last_epoch = 0;
  std::vector<uint64_t> hashes(kWriterBatch);
  int64_t next_start = NowNs();
  for (uint64_t seq = 0; NowNs() < deadline; ++seq) {
    if (seq % kWriterGaugeEvery == 0) gauge.Measure();
    // Think time: an op that overran its period is followed at once, with
    // no burst to catch up.
    const int64_t now = NowNs();
    if (now < next_start) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next_start - now));
    }
    next_start = std::max(next_start, now) +
                 int64_t{kWriterPeriodMs} * 1000000;
    if (NowNs() >= deadline) break;
    const uint64_t op = connection << 40 | seq;
    const std::string& column =
        state.writer_columns[seq % state.writer_columns.size()];
    for (uint64_t& hash : hashes) hash = ndv::Hash64(novel++);
    const int64_t wal_before = traced ? DirectoryBytes(state.wal_dir) : 0;
    ++log.result.attempted;
    const int64_t start = ConnectionCpuNs(server_clock);
    {
      Tracer::Scope span(tracer, "serve.writer.observe_inserts", op);
      state.service->ObserveInserts(column, hashes);
    }
    ndv::StatusOr<ndv::StatsClient::AnalyzeResult> reply = [&] {
      Tracer::Scope span(tracer, "serve.writer.round_trip", op);
      return client.Analyze(/*force=*/false);
    }();
    const int64_t end = ConnectionCpuNs(server_clock);
    if (!reply.ok()) {
      log.result.FailOp("Analyze: " + reply.status().ToString());
      continue;
    }
    if (reply->epoch < last_epoch) {
      log.result.FailCheck("epoch went backwards on the writer connection");
    }
    last_epoch = reply->epoch;
    if (reply->refreshed) {
      log.refresh_ms.Add(static_cast<double>(end - start) * 1e-6, gauge);
      if (traced) {
        log.wal_bytes.push_back(
            static_cast<double>(DirectoryBytes(state.wal_dir) - wal_before));
      }
    }
  }
}

// Times are reference times unless named wall_.
struct PhaseLog {
  std::vector<double> get_stats_ms;
  std::vector<double> wall_get_stats_ms;
  double reader_cpu_seconds = 0.0;
  std::vector<double> refresh_ms;
  std::vector<double> scales;  // each connection's median reading
  int64_t reader_requests = 0;
  int64_t writer_ops = 0;
  int64_t stale_replies = 0;
  std::vector<double> wal_bytes;
  double seconds = 0.0;
};

// Opens kReaders + 1 connections, runs the clients for `seconds`, closes
// the connections and joins every thread. Each connection's client and
// server threads share one CPU (connection i on the i-th CPU from the top),
// so a round trip never waits on a cross-CPU wakeup whose cost depends on
// where the scheduler last put the peer.
PhaseLog RunPhase(const RunConfig& config, ServeState& state, double seconds,
                  Tracer* tracer, uint64_t phase, WorkloadResult& result) {
  constexpr int kConnections = kReaders + 1;
  std::vector<std::unique_ptr<ndv::Transport>> clients;
  std::vector<std::thread> servers;
  std::vector<clockid_t> server_clocks;
  std::vector<Tracer> server_tracers;
  for (int i = 0; i < kConnections; ++i) server_tracers.emplace_back(i);
  for (int i = 0; i < kConnections; ++i) {
    auto client = ndv::ConnectSocket("127.0.0.1", state.server->port());
    if (!client.ok()) {
      result.FailOp("ConnectSocket: " + client.status().ToString());
      break;
    }
    auto accepted = state.server->Accept();
    if (!accepted.ok()) {
      result.FailOp("Accept: " + accepted.status().ToString());
      break;
    }
    clients.push_back(*std::move(client));
    std::shared_ptr<ndv::Transport> server_side = *std::move(accepted);
    const ServerSpans& spans = i < kReaders ? kReaderSpans : kWriterSpans;
    Tracer& server_tracer = server_tracers[static_cast<size_t>(i)];
    ndv::StatsService& service = *state.service;
    const auto connection = static_cast<uint64_t>(phase * 8 + i);
    servers.emplace_back([server_side, &service, &spans, &server_tracer,
                          tracer, connection, i] {
      PinToCpu(i);
      if (tracer == nullptr) {
        ndv::ServeConnection(*server_side, service);
      } else {
        TracedServeConnection(*server_side, service, spans, connection,
                              server_tracer);
      }
    });
    clockid_t clock{};
    if (pthread_getcpuclockid(servers.back().native_handle(), &clock) != 0) {
      result.FailOp("pthread_getcpuclockid of a server thread");
      break;
    }
    server_clocks.push_back(clock);
  }

  PhaseLog out;
  if (static_cast<int>(server_clocks.size()) == kConnections) {
    std::vector<ClientLog> logs(kConnections);
    std::vector<std::thread> threads;
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    for (int i = 0; i < kConnections; ++i) {
      const auto connection = static_cast<uint64_t>(phase * 8 + i);
      const uint64_t seed = DeriveSeed(config.seed, 20 + connection);
      ndv::Transport& transport = *clients[static_cast<size_t>(i)];
      ClientLog& log = logs[static_cast<size_t>(i)];
      log.tracer = Tracer(kConnections + i);
      log.get_stats_ms =
          LatencySample(DeriveSeed(config.seed, 50 + connection));
      const bool traced = tracer != nullptr;
      const clockid_t server_clock = server_clocks[static_cast<size_t>(i)];
      threads.emplace_back([&, i, connection, seed, server_clock, traced] {
        PinToCpu(i);
        if (i < kReaders) {
          RunReader(state, transport, seed, connection, server_clock,
                    deadline, traced, log);
        } else {
          RunWriter(state, transport, seed, connection, server_clock,
                    deadline, traced, log);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    out.seconds = static_cast<double>(NowNs() - start) * 1e-9;
    for (int i = 0; i < kConnections; ++i) {
      ClientLog& log = logs[static_cast<size_t>(i)];
      result.attempted += log.result.attempted;
      result.failed += log.result.failed;
      result.failed_checks += log.result.failed_checks;
      const TimedOps& sample = log.get_stats_ms.sample();
      const std::vector<double> get_stats_ms = sample.Reference(log.gauge);
      out.get_stats_ms.insert(out.get_stats_ms.end(), get_stats_ms.begin(),
                              get_stats_ms.end());
      out.wall_get_stats_ms.insert(out.wall_get_stats_ms.end(),
                                   sample.ms.begin(), sample.ms.end());
      const std::vector<double> refresh_ms =
          log.refresh_ms.Reference(log.gauge);
      out.refresh_ms.insert(out.refresh_ms.end(), refresh_ms.begin(),
                            refresh_ms.end());
      for (const double ms : log.cpu_ms.Reference(log.gauge)) {
        out.reader_cpu_seconds += ms * 1e-3;
      }
      out.scales.push_back(log.gauge.MedianScale());
      (i < kReaders ? out.reader_requests : out.writer_ops) +=
          log.result.attempted;
      out.stale_replies += log.stale_replies;
      out.wal_bytes.insert(out.wal_bytes.end(), log.wal_bytes.begin(),
                           log.wal_bytes.end());
      if (tracer != nullptr) tracer->Merge(log.tracer);
    }
  }
  clients.clear();  // closing the client ends each server loop
  for (std::thread& thread : servers) thread.join();
  if (tracer != nullptr) {
    for (const Tracer& server_tracer : server_tracers) {
      tracer->Merge(server_tracer);
    }
  }
  return out;
}

}  // namespace

WorkloadResult RunServe(const RunConfig& config) {
  WorkloadResult result;
  std::optional<ServeState> state;
  QualityScore quality;
  int rep = 0;
  SpeedGauge gauge;
  const double setup_s = MedianSetupSeconds(gauge, [&] {
    state.reset();
    state = SetUp(config, rep++, quality, result);
  });
  if (!state.has_value()) return result;

  const auto report_counts = [&](const PhaseLog& log) {
    result.counts.push_back({"reader_requests", log.reader_requests});
    result.counts.push_back({"writer_ops", log.writer_ops});
    result.counts.push_back(
        {"refreshes", static_cast<int64_t>(log.refresh_ms.size())});
    result.counts.push_back({"stale_replies", log.stale_replies});
  };
  if (!config.trace) {
    const PhaseLog log =
        RunPhase(config, *state, config.seconds, nullptr, 0, result);
    result.Add("setup_s", setup_s, "s");
    ReportOps(result, log.get_stats_ms,
              static_cast<double>(log.reader_requests),
              log.reader_cpu_seconds);
    result.Add("refresh_ms_p50", Percentile(log.refresh_ms, 50.0), "ms");
    result.extra.push_back(
        {"wall.get_stats_us_p50",
         Percentile(log.wall_get_stats_ms, 50.0) * 1e3, "us"});
    result.extra.push_back(
        {"wall.serve_rps",
         static_cast<double>(log.reader_requests) / log.seconds, "req/s"});
    result.extra.push_back(
        {"speed_scale", Percentile(log.scales, 50.0), "ratio"});
    quality.Report(result);
    report_counts(log);
  } else {
    const PhaseLog plain =
        RunPhase(config, *state, config.seconds / 2, nullptr, 0, result);
    Tracer& tracer = result.trace;
    const PhaseLog traced =
        RunPhase(config, *state, config.seconds / 2, &tracer, 1, result);
    const double plain_p50 = Percentile(plain.get_stats_ms, 50.0);
    const double traced_p50 = Percentile(traced.get_stats_ms, 50.0);
    const Tracer::Aggregate round_trip = tracer.Get("serve.round_trip");
    const int64_t requests = round_trip.calls;
    const double server_ns =
        static_cast<double>(tracer.Get("serve.decode").self_ns +
                            tracer.Get("serve.submit").self_ns +
                            tracer.Get("serve.encode").self_ns);
    auto& layers = result.layers;
    layers["trace.overhead_pct"] = (traced_p50 / plain_p50 - 1.0) * 100.0;
    layers["serve.encode_ns"] = tracer.SelfPer("serve.encode", requests, 1.0);
    layers["serve.decode_ns"] = tracer.SelfPer("serve.decode", requests, 1.0);
    layers["serve.submit_us"] = tracer.SelfPer("serve.submit", requests, 1e3);
    layers["serve.transport_wait_us"] =
        requests > 0 ? (static_cast<double>(round_trip.total_ns) - server_ns) /
                           static_cast<double>(requests) / 1e3
                     : 0.0;
    layers["serve.frame_bytes"] =
        requests > 0
            ? static_cast<double>(tracer.Counter("serve.frame_bytes")) /
                  static_cast<double>(requests)
            : 0.0;
    layers["serve.shed"] = static_cast<double>(tracer.Counter("serve.shed"));
    layers["serve.stale_replies"] =
        static_cast<double>(tracer.Counter("serve.stale_replies"));
    layers["serve.get_stats_us_p99"] =
        Percentile(plain.get_stats_ms, 99.0) * 1e3;
    layers["serve.get_stats_us_p999"] =
        Percentile(plain.get_stats_ms, 99.9) * 1e3;
    // Median, not mean: a WAL compaction shrinks the directory.
    layers["catalog.wal_bytes_per_publish"] =
        Percentile(traced.wal_bytes, 50.0);
    result.extra.push_back({"untraced.get_stats_us_p50", plain_p50 * 1e3,
                            "us"});
    result.extra.push_back({"traced.get_stats_us_p50", traced_p50 * 1e3,
                            "us"});
    report_counts(traced);
  }
  state->server->Shutdown();
  return result;
}

}  // namespace perfbench
