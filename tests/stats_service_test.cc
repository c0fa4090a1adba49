#include "serve/stats_service.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/durable_catalog.h"
#include "common/random.h"
#include "datagen/zipf.h"
#include "distributed/clock.h"
#include "serve/protocol.h"
#include "support/transport_doubles.h"
#include "table/table.h"

namespace ndv {
namespace {

// One-column table: `rows` rows, rows/dup_factor distinct values.
std::shared_ptr<const Table> MakeTestTable(int64_t rows, int64_t dup_factor,
                                           std::string column_name = "value") {
  ZipfColumnOptions options;
  options.rows = rows;
  options.z = 0.0;
  options.dup_factor = dup_factor;
  Table table;
  table.AddColumn(std::move(column_name), MakeZipfColumn(options));
  return std::make_shared<Table>(std::move(table));
}

StatsServiceOptions FastOptions() {
  StatsServiceOptions options;
  options.analyze.sample_fraction = 0.5;
  options.analyze.seed = 7;
  options.analyze.threads = 1;
  return options;
}

// Runs ServeConnection on a background thread until the connection closes.
class ServerFixture {
 public:
  ServerFixture(StatsService& service, Transport& transport)
      : thread_([&service, &transport] {
          ServeConnection(transport, service);
        }) {}
  ~ServerFixture() { thread_.join(); }

 private:
  std::thread thread_;
};

TEST(StatsServiceTest, ServesStatsEndToEndInProcess) {
  const auto table = MakeTestTable(2000, 100);  // D = 20
  StatsService service(table, FastOptions());
  EXPECT_EQ(service.epoch(), 1u);

  InProcessConnection conn;
  {
    ServerFixture server(service, conn.server());
    StatsClient client(conn.client(), {});

    const auto listed = client.List();
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    ASSERT_EQ(listed->size(), 1u);
    EXPECT_EQ((*listed)[0], "value");

    const auto stats = client.GetStats("value");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->epoch, 1u);
    EXPECT_FALSE(stats->stale);
    EXPECT_EQ(stats->stats.column_name, "value");
    EXPECT_EQ(stats->stats.table_rows, 2000);
    EXPECT_GT(stats->stats.estimate, 0.0);
    EXPECT_LE(stats->stats.lower, stats->stats.upper);

    const auto missing = client.GetStats("no_such_column");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

    conn.Close();
  }
}

TEST(StatsServiceTest, AnalyzeIsACacheHitWhileFresh) {
  const auto table = MakeTestTable(2000, 100);
  StatsService service(table, FastOptions());

  InProcessConnection conn;
  {
    ServerFixture server(service, conn.server());
    StatsClient client(conn.client(), {});

    // Nothing changed since construction: ANALYZE is answered from cache.
    const auto probe = client.Analyze(/*force=*/false);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    EXPECT_FALSE(probe->refreshed);
    EXPECT_EQ(probe->epoch, 1u);
    EXPECT_EQ(probe->analyzed_columns, 0);

    // force bypasses the staleness probe and always rescans.
    const auto forced = client.Analyze(/*force=*/true);
    ASSERT_TRUE(forced.ok()) << forced.status().ToString();
    EXPECT_TRUE(forced->refreshed);
    EXPECT_EQ(forced->epoch, 2u);
    EXPECT_EQ(forced->analyzed_columns, 1);

    conn.Close();
  }
}

TEST(StatsServiceTest, DriftPastThresholdMarksStaleAndAnalyzeRefreshes) {
  const auto table = MakeTestTable(1000, 50);  // D = 20
  auto options = FastOptions();
  options.stale_changed_fraction = 0.2;
  StatsService service(table, options);

  // 30% novel rows inserted since the publication: Rule 1 fires.
  std::vector<uint64_t> novel;
  novel.reserve(300);
  for (uint64_t v = 0; v < 300; ++v) novel.push_back(Hash64(1000000 + v));
  service.ObserveInserts("value", novel);

  InProcessConnection conn;
  {
    ServerFixture server(service, conn.server());
    StatsClient client(conn.client(), {});

    const auto stale = client.GetStats("value");
    ASSERT_TRUE(stale.ok()) << stale.status().ToString();
    EXPECT_TRUE(stale->stale);

    const auto refreshed = client.Analyze(/*force=*/false);
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    EXPECT_TRUE(refreshed->refreshed);
    EXPECT_EQ(refreshed->epoch, 2u);

    // The publication reset the drift baseline.
    const auto fresh = client.GetStats("value");
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_FALSE(fresh->stale);
    EXPECT_EQ(fresh->epoch, 2u);

    conn.Close();
  }
}

TEST(StatsServiceTest, SmallDuplicateDriftStaysFresh) {
  const auto table = MakeTestTable(1000, 50);
  auto options = FastOptions();
  options.analyze.sample_fraction = 0.01;  // Wide published bracket.
  options.stale_changed_fraction = 0.2;
  StatsService service(table, options);

  // 10% re-inserted existing values: below the drift threshold, and the
  // running estimate stays inside the published bracket.
  std::vector<uint64_t> duplicates;
  duplicates.reserve(100);
  for (int64_t row = 0; row < 100; ++row) {
    duplicates.push_back(table->column(0).HashAt(row));
  }
  service.ObserveInserts("value", duplicates);

  InProcessConnection conn;
  {
    ServerFixture server(service, conn.server());
    StatsClient client(conn.client(), {});

    const auto stats = client.GetStats("value");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_FALSE(stats->stale);

    const auto probe = client.Analyze(/*force=*/false);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    EXPECT_FALSE(probe->refreshed);
    EXPECT_EQ(probe->epoch, 1u);

    conn.Close();
  }
}

TEST(StatsServiceTest, BadStaleThresholdIsATypedErrorNotACrash) {
  const auto table = MakeTestTable(1000, 50);
  auto options = FastOptions();
  options.stale_changed_fraction = -0.5;  // A knob a client could misset.
  StatsService service(table, options);
  // The bad knob only matters once drift must actually be computed.
  service.ObserveInserts("value", {Hash64(999999)});

  InProcessConnection conn;
  {
    ServerFixture server(service, conn.server());
    StatsClient client(conn.client(), {});
    const auto stats = client.GetStats("value");
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
    conn.Close();
  }
}

TEST(StatsServiceTest, MalformedFrameGetsErrorReplyNotDroppedConnection) {
  const auto table = MakeTestTable(1000, 50);
  StatsService service(table, FastOptions());

  InProcessConnection conn;
  {
    ServerFixture server(service, conn.server());

    ASSERT_TRUE(conn.client().Send("this is not a protocol message").ok());
    const auto payload = conn.client().Receive(5000);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    const auto reply = DecodeMessage(*payload);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, MessageType::kError);
    const Status carried = StatusFromError(*reply);
    EXPECT_TRUE(carried.code() == StatusCode::kDataLoss ||
                carried.code() == StatusCode::kInvalidArgument)
        << carried.ToString();

    // The connection survived: a well-formed request still works.
    StatsClient client(conn.client(), {});
    const auto listed = client.List();
    EXPECT_TRUE(listed.ok()) << listed.status().ToString();

    conn.Close();
  }
}

TEST(StatsServiceTest, ResponseTypedRequestIsRejected) {
  const auto table = MakeTestTable(1000, 50);
  StatsService service(table, FastOptions());
  Message bogus;
  bogus.type = MessageType::kStatsReply;
  bogus.request_id = 17;
  const Message reply = service.Submit(bogus);
  EXPECT_EQ(reply.type, MessageType::kError);
  EXPECT_EQ(reply.request_id, 17u);
  EXPECT_EQ(StatusFromError(reply).code(), StatusCode::kInvalidArgument);
}

TEST(StatsServiceTest, AdmissionControlShedsLoadWithUnavailable) {
  const auto table = MakeTestTable(20000, 100);
  auto options = FastOptions();
  options.max_inflight = 1;
  StatsService service(table, options);

  Message analyze;
  analyze.type = MessageType::kAnalyze;
  analyze.force = true;
  Message get;
  get.type = MessageType::kGetStats;
  get.column = "value";

  // A worker keeps the single admission slot busy with forced re-ANALYZEs;
  // the probe thread must eventually be shed with an "overloaded" error.
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    while (!stop.load(std::memory_order_acquire)) service.Submit(analyze);
  });

  // Probe only while the worker demonstrably holds the slot (inflight
  // gauge reads 1): a count-bounded blind loop is flaky on one core, where
  // the probe can exhaust its budget while the worker sits between
  // Submits. Time-bound the loop instead.
  bool shed = false;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!shed && std::chrono::steady_clock::now() < give_up) {
    if (service.inflight() == 0) {
      std::this_thread::yield();
      continue;
    }
    const Message reply = service.Submit(get);
    if (reply.type == MessageType::kError) {
      const Status status = StatusFromError(reply);
      ASSERT_EQ(status.code(), StatusCode::kUnavailable)
          << status.ToString();
      EXPECT_NE(status.message().find("overloaded"), std::string::npos)
          << status.ToString();
      shed = true;
    }
  }
  stop.store(true, std::memory_order_release);
  worker.join();
  EXPECT_TRUE(shed) << "admission control never shed a request";
  EXPECT_EQ(service.inflight(), 0);
}

TEST(TransportTest, BoundedQueueAppliesBackpressure) {
  InProcessConnection conn(/*queue_capacity=*/1);
  ASSERT_TRUE(conn.client().Send("first").ok());
  const Status full = conn.client().Send("second");
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kUnavailable);

  // Draining the queue frees the slot again.
  const auto got = conn.server().Receive(1000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "first");
  EXPECT_TRUE(conn.client().Send("third").ok());
}

TEST(TransportTest, ReceiveTimesOutThenClosedConnectionIsUnavailable) {
  InProcessConnection conn;
  const auto timed_out = conn.client().Receive(10);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  conn.Close();
  const auto closed = conn.client().Receive(10);
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(conn.server().Send("after close").ok());
}

TEST(FaultyTransportTest, DelaySleepsOnTheInjectedClock) {
  InProcessConnection conn;
  VirtualClock clock;
  FaultyTransport faulty(conn.client(), clock);
  TransportFault slow;
  slow.delay_ms = 5000;
  faulty.SetFault(0, slow);

  ASSERT_TRUE(conn.server().Send("slow frame").ok());
  const auto got = faulty.Receive(1000);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "slow frame");
  // The 5-second stall happened on the virtual clock, not the wall clock.
  EXPECT_EQ(clock.NowMillis(), 5000);
}

TEST(FaultyTransportTest, CorruptFlipsOneByte) {
  InProcessConnection conn;
  VirtualClock clock;
  FaultyTransport faulty(conn.client(), clock);
  TransportFault corrupt;
  corrupt.corrupt = true;
  faulty.SetFault(0, corrupt);

  ASSERT_TRUE(conn.server().Send("payload").ok());
  const auto got = faulty.Receive(1000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 7u);
  EXPECT_NE(*got, "payload");
}

TEST(FaultyTransportTest, TruncateChopsThePayloadTail) {
  InProcessConnection conn;
  VirtualClock clock;
  FaultyTransport faulty(conn.client(), clock);
  TransportFault truncate;
  truncate.truncate = true;
  faulty.SetFault(0, truncate);

  ASSERT_TRUE(conn.server().Send("payload").ok());
  const auto got = faulty.Receive(1000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "pay");  // half of the 7 bytes survived delivery
}

TEST(StatsClientTest, TruncatedReplyIsRetriedToSuccess) {
  const auto table = MakeTestTable(1000, 50);
  StatsService service(table, FastOptions());

  InProcessConnection conn;
  VirtualClock clock;
  FaultyTransport faulty(conn.client(), clock);
  TransportFault truncate;
  truncate.truncate = true;
  faulty.SetFault(0, truncate);  // Chop the first reply mid-payload.

  {
    ServerFixture server(service, conn.server());
    StatsClientOptions options;
    options.retry.max_attempts = 3;
    options.clock = &clock;
    StatsClient client(faulty, options);

    // The truncated reply decodes as DataLoss — a retryable attempt
    // failure, not a client crash — and the second attempt succeeds.
    const auto stats = client.GetStats("value");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->stats.column_name, "value");

    conn.Close();
  }
}

TEST(StatsClientTest, DroppedReplyTimesOutAndTheRetrySucceeds) {
  const auto table = MakeTestTable(1000, 50);
  StatsService service(table, FastOptions());

  InProcessConnection conn;
  VirtualClock clock;
  FaultyTransport faulty(conn.client(), clock);
  TransportFault drop;
  drop.drop = true;
  faulty.SetFault(0, drop);  // Swallow the reply to the first attempt.

  {
    ServerFixture server(service, conn.server());
    StatsClientOptions options;
    options.attempt_timeout_ms = 50;  // Real: the queue waits on a condvar.
    options.retry.max_attempts = 3;
    options.clock = &clock;  // Backoff sleeps are instant and observable.
    StatsClient client(faulty, options);

    const auto stats = client.GetStats("value");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->stats.column_name, "value");
    // One backoff happened between the two attempts.
    EXPECT_GT(clock.NowMillis(), 0);

    conn.Close();
  }
}

TEST(StatsClientTest, CorruptReplyIsDataLossWithoutRetries) {
  // A 20-character column name places the corrupted byte inside the LIST
  // reply's string-length field, which breaks decoding deterministically.
  const auto table = MakeTestTable(1000, 50, "column_with_20_chars");
  StatsService service(table, FastOptions());

  InProcessConnection conn;
  VirtualClock clock;
  FaultyTransport faulty(conn.client(), clock);
  TransportFault corrupt;
  corrupt.corrupt = true;
  faulty.SetFault(0, corrupt);

  {
    ServerFixture server(service, conn.server());
    StatsClientOptions options;
    options.retry.max_attempts = 1;  // Surface the raw classification.
    options.clock = &clock;
    StatsClient client(faulty, options);

    const auto listed = client.List();
    ASSERT_FALSE(listed.ok());
    EXPECT_EQ(listed.status().code(), StatusCode::kDataLoss);

    conn.Close();
  }
}

TEST(StatsClientTest, CorruptReplyIsRetriedToSuccess) {
  const auto table = MakeTestTable(1000, 50, "column_with_20_chars");
  StatsService service(table, FastOptions());

  InProcessConnection conn;
  VirtualClock clock;
  FaultyTransport faulty(conn.client(), clock);
  TransportFault corrupt;
  corrupt.corrupt = true;
  faulty.SetFault(0, corrupt);

  {
    ServerFixture server(service, conn.server());
    StatsClientOptions options;
    options.retry.max_attempts = 3;
    options.clock = &clock;
    StatsClient client(faulty, options);

    const auto listed = client.List();
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    ASSERT_EQ(listed->size(), 1u);
    EXPECT_EQ((*listed)[0], "column_with_20_chars");

    conn.Close();
  }
}

TEST(StatsClientTest, DeadlineCutsRetriesShort) {
  const auto table = MakeTestTable(1000, 50);
  StatsService service(table, FastOptions());

  InProcessConnection conn;
  VirtualClock clock;
  FaultyTransport faulty(conn.client(), clock);
  TransportFault drop;
  drop.drop = true;
  faulty.SetFault(0, drop);
  faulty.SetFault(1, drop);
  faulty.SetFault(2, drop);

  {
    ServerFixture server(service, conn.server());
    StatsClientOptions options;
    options.attempt_timeout_ms = 30;
    options.retry.max_attempts = 3;
    options.retry.backoff_base_ms = 100;
    options.deadline_ms = 50;  // Exhausted by the first backoff.
    options.clock = &clock;
    StatsClient client(faulty, options);

    const auto stats = client.GetStats("value");
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(stats.status().message().find("client deadline"),
              std::string::npos)
        << stats.status().ToString();

    conn.Close();
  }
}

// The durable serve boot path: a service built over a recovered
// DurableCatalog resumes the journaled epoch sequence and serves the
// journaled statistics without re-scanning the table.
TEST(StatsServiceDurabilityTest, RecoveredBootSkipsRescanAndResumesEpoch) {
  const auto table = MakeTestTable(2000, 100);
  const std::string dir = testing::TempDir() + "/stats_service_durable";
  std::system(("rm -rf " + dir).c_str());

  ColumnStats journaled;
  {
    auto durable = DurableCatalog::Open({.dir = dir});
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    auto options = FastOptions();
    options.durable = durable->get();
    StatsService service(table, options);
    // The boot publication was journaled as epoch 1.
    EXPECT_EQ(service.epoch(), 1u);
    EXPECT_EQ((*durable)->epoch(), 1u);

    // A forced re-ANALYZE journals a second publication.
    Message analyze;
    analyze.type = MessageType::kAnalyze;
    analyze.force = true;
    const Message reply = service.Submit(analyze);
    ASSERT_EQ(reply.type, MessageType::kAnalyzeReply);
    EXPECT_EQ(reply.epoch, 2u);
    EXPECT_EQ((*durable)->epoch(), 2u);
    const auto stats = (*durable)->state().Find("value");
    ASSERT_TRUE(stats.has_value());
    journaled = *stats;
  }

  // Second boot: recovery replays the journal; the service publishes the
  // recovered state at the recovered epoch instead of re-analyzing.
  auto durable = DurableCatalog::Open({.dir = dir});
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  EXPECT_EQ((*durable)->epoch(), 2u);
  auto options = FastOptions();
  options.analyze.seed = 999;  // A rescan would sample differently.
  options.durable = durable->get();
  StatsService service(table, options);
  EXPECT_EQ(service.epoch(), 2u);  // resumed, not restarted at 1

  Message get;
  get.type = MessageType::kGetStats;
  get.column = "value";
  const Message served = service.Submit(get);
  ASSERT_EQ(served.type, MessageType::kStatsReply);
  EXPECT_EQ(served.epoch, 2u);
  EXPECT_FALSE(served.stale);  // recovery marks the trackers fresh
  // Bit-identical to what the journal acknowledged before the "crash".
  EXPECT_EQ(served.stats.estimate, journaled.estimate);
  EXPECT_EQ(served.stats.sample_rows, journaled.sample_rows);
  EXPECT_EQ(served.stats.method, journaled.method);
}

}  // namespace
}  // namespace ndv
