#include "serve/stats_service.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"

namespace ndv {

StatsService::StatsService(std::shared_ptr<const Table> table,
                           StatsServiceOptions options)
    : table_(std::move(table)),
      options_(std::move(options)),
      clock_(options_.clock == nullptr ? SystemClock() : *options_.clock) {
  NDV_CHECK_MSG(table_ != nullptr, "StatsService requires a table");
  NDV_CHECK_MSG(options_.max_inflight >= 1,
                "max_inflight must be >= 1, got %d", options_.max_inflight);

  // Warm one incremental tracker per column with the table's current rows,
  // so drift fractions are measured against the real table size and the
  // sketch baseline covers the existing values. Staleness reads only row
  // counts and sketch estimates, so the trackers keep the default
  // IncrementalStatsOptions. The constructor is single-threaded, but
  // trackers_ is guarded state: hold its lock so the warm-up fill lives
  // inside the declared capability.
  {
    MutexLock lock(tracker_mutex_);
    for (int64_t c = 0; c < table_->NumColumns(); ++c) {
      const Column& column = table_->column(c);
      auto tracker =
          std::make_unique<IncrementalStats>(IncrementalStatsOptions{});
      column.PrepareFullScan();
      tracker->AppendBatch(FullColumnSlice(column));
      trackers_.emplace(table_->column_name(c), std::move(tracker));
    }
  }

  if (options_.durable != nullptr && options_.durable->epoch() > 0) {
    // Recovery boot: the durable catalog already holds the last
    // acknowledged statistics — publish them at the recovered epoch and
    // skip the table scan entirely. The recovered stats were fresh when
    // journaled, so they reset the drift baseline like a publication.
    catalog_.PublishAt(options_.durable->state(), options_.durable->epoch());
    MutexLock lock(tracker_mutex_);
    for (auto& [name, tracker] : trackers_) tracker->MarkFresh();
  } else {
    // First publication: the service is queryable at epoch 1 from the
    // start. A journal failure here means the store is unusable — refuse
    // to come up rather than serve statistics recovery cannot reproduce.
    const auto published = ReanalyzeAndPublish();
    NDV_CHECK_MSG(published.ok(), "initial publication failed: %s",
                  published.status().ToString().c_str());
  }
}

StatusOr<uint64_t> StatsService::ReanalyzeAndPublish() {
  StatsCatalog fresh = AnalyzeTable(*table_, options_.analyze);
  uint64_t epoch;
  if (options_.durable != nullptr) {
    // Write-ahead: journal first, publish second. A crash between the two
    // replays the publication on the next boot; the reverse order could
    // acknowledge an epoch that recovery cannot reproduce.
    NDV_RETURN_IF_ERROR(options_.durable->AppendPublish(fresh));
    epoch = catalog_.PublishAt(std::move(fresh), options_.durable->epoch());
  } else {
    epoch = catalog_.Publish(std::move(fresh));
  }
  // The fresh publication resets every column's drift baseline.
  MutexLock lock(tracker_mutex_);
  for (auto& [name, tracker] : trackers_) tracker->MarkFresh();
  return epoch;
}

StatusOr<bool> StatsService::ColumnIsStale(const ColumnStats& published) {
  MutexLock lock(tracker_mutex_);
  const auto it = trackers_.find(published.column_name);
  if (it == trackers_.end()) return false;  // No insert feed: trust cache.
  const IncrementalStats& tracker = *it->second;

  // Fast path: nothing inserted since the last publication.
  if (tracker.rows() == tracker.rows_at_fresh()) return false;

  // Rule 1 — volume trigger: the inserted volume alone exceeds the
  // configured fraction of the rows the statistics were built over.
  auto volume = tracker.IsStaleOrStatus(options_.stale_changed_fraction);
  if (!volume.ok()) return volume.status();
  if (*volume) return true;

  // Rule 2 — interval escape: the tracker's running sketch estimate has
  // moved further from its at-publication baseline than the published
  // [LOWER, UPPER] bracket is wide, which proves the estimate left the
  // bracket. The same predicate drives StatsMaintainer's drift trigger.
  // O(1): the sketches keep their registers-per-rank and zero-bit counts
  // current, and nothing on this path reads the reservoir.
  return DriftTriggerFires(tracker.DriftSinceFresh(),
                           published.upper - published.lower);
}

Message StatsService::HandleGetStats(const Message& request) {
  const auto snapshot = Snapshot();
  auto found = snapshot->catalog.Find(request.column);
  if (!found.has_value()) {
    Message reply = ErrorMessage(NotFoundError(
        "no statistics for column '%.*s' (epoch %llu)",
        static_cast<int>(std::min<size_t>(request.column.size(), 128)),
        request.column.data(),
        static_cast<unsigned long long>(snapshot->epoch)));
    reply.request_id = request.request_id;
    return reply;
  }
  auto stale = ColumnIsStale(*found);
  if (!stale.ok()) {
    Message reply = ErrorMessage(stale.status());
    reply.request_id = request.request_id;
    return reply;
  }
  Message reply;
  reply.type = MessageType::kStatsReply;
  reply.request_id = request.request_id;
  reply.epoch = snapshot->epoch;
  reply.stale = *stale;
  reply.stats = *std::move(found);
  return reply;
}

Message StatsService::HandleAnalyze(const Message& request) {
  // One table scan per herd: concurrent ANALYZE probes queue here, and all
  // but the first see fresh statistics and turn into cache hits.
  MutexLock analyze_lock(analyze_mutex_);
  Message reply;
  reply.type = MessageType::kAnalyzeReply;
  reply.request_id = request.request_id;
  if (!request.force) {
    const auto snapshot = Snapshot();
    bool any_stale = false;
    for (const ColumnStats& stats : snapshot->catalog.entries()) {
      auto stale = ColumnIsStale(stats);
      if (!stale.ok()) {
        Message error = ErrorMessage(stale.status());
        error.request_id = request.request_id;
        return error;
      }
      if (*stale) {
        any_stale = true;
        break;
      }
    }
    if (!any_stale) {
      reply.epoch = snapshot->epoch;
      reply.analyzed_columns = 0;
      reply.refreshed = false;
      return reply;
    }
  }
  const auto published = ReanalyzeAndPublish();
  if (!published.ok()) {
    Message error = ErrorMessage(published.status());
    error.request_id = request.request_id;
    return error;
  }
  reply.epoch = *published;
  reply.analyzed_columns = table_->NumColumns();
  reply.refreshed = true;
  return reply;
}

Message StatsService::HandleList() {
  const auto snapshot = Snapshot();
  Message reply;
  reply.type = MessageType::kListReply;
  reply.epoch = snapshot->epoch;
  reply.columns.reserve(snapshot->catalog.entries().size());
  for (const ColumnStats& stats : snapshot->catalog.entries()) {
    reply.columns.push_back(stats.column_name);
  }
  return reply;
}

Message StatsService::Handle(const Message& request) {
  switch (request.type) {
    case MessageType::kGetStats:
      return HandleGetStats(request);
    case MessageType::kAnalyze:
      return HandleAnalyze(request);
    case MessageType::kList: {
      Message reply = HandleList();
      reply.request_id = request.request_id;
      return reply;
    }
    case MessageType::kStatsReply:
    case MessageType::kListReply:
    case MessageType::kAnalyzeReply:
    case MessageType::kError: {
      Message reply = ErrorMessage(InvalidArgumentError(
          "message type %s is a response, not a request",
          std::string(MessageTypeName(request.type)).c_str()));
      reply.request_id = request.request_id;
      return reply;
    }
  }
  Message reply = ErrorMessage(InternalError("unhandled message type"));
  reply.request_id = request.request_id;
  return reply;
}

Message StatsService::Submit(const Message& request) {
  {
    MutexLock lock(inflight_mutex_);
    if (inflight_ >= options_.max_inflight) {
      Message reply = ErrorMessage(UnavailableError(
          "overloaded: %d requests in flight (admission bound %d); retry "
          "with backoff",
          inflight_, options_.max_inflight));
      reply.request_id = request.request_id;
      return reply;
    }
    ++inflight_;
  }
  Message reply = Handle(request);
  {
    MutexLock lock(inflight_mutex_);
    --inflight_;
  }
  return reply;
}

void StatsService::ObserveInserts(const std::string& column,
                                  const std::vector<uint64_t>& hashes) {
  MutexLock lock(tracker_mutex_);
  const auto it = trackers_.find(column);
  if (it == trackers_.end()) return;
  it->second->AddHashes(hashes);
}

int StatsService::inflight() const {
  MutexLock lock(inflight_mutex_);
  return inflight_;
}

void ServeConnection(Transport& transport, StatsService& service,
                     int64_t idle_timeout_ms) {
  for (;;) {
    auto payload = transport.Receive(idle_timeout_ms);
    if (!payload.ok()) return;  // Peer closed or the connection idled out.
    auto request = DecodeMessage(*payload);
    const Message reply =
        request.ok() ? service.Submit(*request) : ErrorMessage(request.status());
    if (!transport.Send(EncodeMessage(reply)).ok()) return;
  }
}

StatsClient::StatsClient(Transport& transport, StatsClientOptions options)
    : transport_(transport),
      options_(std::move(options)),
      clock_(options_.clock == nullptr ? SystemClock() : *options_.clock) {}

StatusOr<Message> StatsClient::Call(const Message& request,
                                    MessageType expected) {
  // Correlation ids only need to be unique per connection; a simple
  // monotonic counter shared by all clients of this process is plenty.
  static std::atomic<uint64_t> next_request_id{1};

  const int64_t start_ms = clock_.NowMillis();
  const int64_t deadline_at =
      options_.deadline_ms > 0 ? start_ms + options_.deadline_ms : 0;
  Status last_error = UnavailableError("no attempts made");
  for (int attempt = 0; attempt < options_.retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      clock_.SleepMillis(RetryBackoffMillis(options_.retry, attempt - 1));
    }
    if (deadline_at > 0 && clock_.NowMillis() >= deadline_at) {
      return DeadlineExceededError(
          "client deadline of %lld ms exceeded after %d attempts; last: %s",
          static_cast<long long>(options_.deadline_ms), attempt,
          last_error.ToString().c_str());
    }

    Message attempt_request = request;
    attempt_request.request_id =
        next_request_id.fetch_add(1, std::memory_order_relaxed);
    const Status sent = transport_.Send(EncodeMessage(attempt_request));
    if (!sent.ok()) {
      if (!IsRetryableStatus(sent.code())) return sent;
      last_error = sent;
      continue;
    }

    // Receive until our reply arrives; late replies to earlier timed-out
    // attempts are identified by their stale request id and discarded.
    Status attempt_error;
    for (;;) {
      auto payload = transport_.Receive(options_.attempt_timeout_ms);
      if (!payload.ok()) {
        attempt_error = payload.status();
        break;
      }
      auto reply = DecodeMessage(*payload);
      if (!reply.ok()) {
        attempt_error = reply.status();
        break;
      }
      if (reply->request_id != attempt_request.request_id) continue;
      if (reply->type == MessageType::kError) {
        attempt_error = StatusFromError(*reply);
        break;
      }
      if (reply->type != expected) {
        return InternalError("expected %s reply, got %s",
                             std::string(MessageTypeName(expected)).c_str(),
                             std::string(MessageTypeName(reply->type)).c_str());
      }
      return *std::move(reply);
    }
    if (!IsRetryableStatus(attempt_error.code())) return attempt_error;
    last_error = attempt_error;
  }
  return last_error;
}

StatusOr<StatsClient::StatsResult> StatsClient::GetStats(
    const std::string& column) {
  Message request;
  request.type = MessageType::kGetStats;
  request.column = column;
  auto reply = Call(request, MessageType::kStatsReply);
  if (!reply.ok()) return reply.status();
  StatsResult result;
  result.stats = std::move(reply->stats);
  result.epoch = reply->epoch;
  result.stale = reply->stale;
  return result;
}

StatusOr<std::vector<std::string>> StatsClient::List() {
  Message request;
  request.type = MessageType::kList;
  auto reply = Call(request, MessageType::kListReply);
  if (!reply.ok()) return reply.status();
  return std::move(reply->columns);
}

StatusOr<StatsClient::AnalyzeResult> StatsClient::Analyze(bool force) {
  Message request;
  request.type = MessageType::kAnalyze;
  request.force = force;
  auto reply = Call(request, MessageType::kAnalyzeReply);
  if (!reply.ok()) return reply.status();
  AnalyzeResult result;
  result.epoch = reply->epoch;
  result.analyzed_columns = reply->analyzed_columns;
  result.refreshed = reply->refreshed;
  return result;
}

}  // namespace ndv
