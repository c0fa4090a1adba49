#include "support/transport_doubles.h"

#include <chrono>
#include <utility>

namespace ndv {

// One direction of an in-process connection: a bounded MPMC queue. Closing
// wakes every waiter; a drained closed queue reports Unavailable, which the
// receiver treats as "peer hung up".
class InProcessConnection::Queue {
 public:
  explicit Queue(size_t capacity) : capacity_(capacity) {}

  Status Push(std::string payload) NDV_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_) return UnavailableError("connection closed");
      if (frames_.size() >= capacity_) {
        return UnavailableError(
            "transport queue full (%zu frames); receiver is not keeping up",
            capacity_);
      }
      frames_.push_back(std::move(payload));
    }
    ready_.NotifyOne();
    return Status::Ok();
  }

  StatusOr<std::string> Pop(int64_t timeout_ms) NDV_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (timeout_ms <= 0) {
      while (!closed_ && frames_.empty()) ready_.Wait(mutex_);
    } else {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(timeout_ms);
      while (!closed_ && frames_.empty()) {
        if (ready_.WaitUntil(mutex_, deadline) && frames_.empty() &&
            !closed_) {
          return DeadlineExceededError("no frame within %lld ms",
                                       static_cast<long long>(timeout_ms));
        }
      }
    }
    if (frames_.empty()) {
      // Only reachable when closed_ is set: drained and hung up.
      return UnavailableError("connection closed");
    }
    std::string payload = std::move(frames_.front());
    frames_.pop_front();
    return payload;
  }

  void Close() NDV_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    ready_.NotifyAll();
  }

 private:
  const size_t capacity_;
  Mutex mutex_;
  CondVar ready_;
  std::deque<std::string> frames_ NDV_GUARDED_BY(mutex_);
  bool closed_ NDV_GUARDED_BY(mutex_) = false;
};

class InProcessConnection::Endpoint final : public Transport {
 public:
  Endpoint(std::shared_ptr<Queue> outbound, std::shared_ptr<Queue> inbound)
      : outbound_(std::move(outbound)), inbound_(std::move(inbound)) {}

  Status Send(std::string payload) override {
    return outbound_->Push(std::move(payload));
  }

  StatusOr<std::string> Receive(int64_t timeout_ms) override {
    return inbound_->Pop(timeout_ms);
  }

 private:
  std::shared_ptr<Queue> outbound_;
  std::shared_ptr<Queue> inbound_;
};

InProcessConnection::InProcessConnection(size_t queue_capacity)
    : client_to_server_(std::make_shared<Queue>(queue_capacity)),
      server_to_client_(std::make_shared<Queue>(queue_capacity)),
      client_(std::make_unique<Endpoint>(client_to_server_,
                                         server_to_client_)),
      server_(std::make_unique<Endpoint>(server_to_client_,
                                         client_to_server_)) {}

Transport& InProcessConnection::client() { return *client_; }
Transport& InProcessConnection::server() { return *server_; }

void InProcessConnection::Close() {
  client_to_server_->Close();
  server_to_client_->Close();
}

InProcessConnection::~InProcessConnection() { Close(); }

void FaultyTransport::SetFault(int64_t frame_index, TransportFault fault) {
  MutexLock lock(mutex_);
  faults_.emplace_back(frame_index, fault);
}

StatusOr<std::string> FaultyTransport::Receive(int64_t timeout_ms) {
  for (;;) {
    auto payload = wrapped_.Receive(timeout_ms);
    if (!payload.ok()) return payload;

    TransportFault fault;
    {
      MutexLock lock(mutex_);
      const int64_t index = received_++;
      for (auto it = faults_.begin(); it != faults_.end(); ++it) {
        if (it->first == index) {
          fault = it->second;
          faults_.erase(it);
          break;
        }
      }
    }
    if (fault.delay_ms > 0) clock_.SleepMillis(fault.delay_ms);
    if (fault.drop) continue;  // Frame lost in transit; keep waiting.
    if (fault.corrupt && !payload->empty()) {
      // Flip a bit mid-payload: framing survives, the body does not.
      (*payload)[payload->size() / 2] =
          static_cast<char>((*payload)[payload->size() / 2] ^ 0x20);
    }
    if (fault.truncate && !payload->empty()) {
      // Deliver only the head of the payload — the in-process analogue of
      // a peer dying mid-frame. The decoder sees a body that ends early
      // and reports DataLoss, which the client treats as retryable.
      payload->resize(payload->size() / 2);
    }
    return payload;
  }
}

}  // namespace ndv
