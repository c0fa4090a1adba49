#ifndef NDV_TESTS_SUPPORT_TRANSPORT_DOUBLES_H_
#define NDV_TESTS_SUPPORT_TRANSPORT_DOUBLES_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "distributed/clock.h"
#include "serve/transport.h"

namespace ndv {

// An in-process connection: a pair of endpoints joined by two bounded
// queues, so tests exercise protocol, service, client, and admission
// control end to end with no sockets and no flakiness. Thread-safe; real
// condition-variable waits.
class InProcessConnection {
 public:
  // `queue_capacity` bounds each direction; Send into a full queue fails
  // with Unavailable (the transport-level backpressure signal).
  explicit InProcessConnection(size_t queue_capacity = 64);

  // Defined out of line: Endpoint is only complete inside transport_doubles.cc.
  Transport& client();
  Transport& server();

  // Closes both directions: blocked Receives wake with Unavailable and
  // further Sends fail. Idempotent.
  void Close();

  ~InProcessConnection();

 private:
  class Queue;
  class Endpoint;
  std::shared_ptr<Queue> client_to_server_;
  std::shared_ptr<Queue> server_to_client_;
  std::unique_ptr<Endpoint> client_;
  std::unique_ptr<Endpoint> server_;
};

// Fault kinds a FaultyTransport can inject on the receive path.
struct TransportFault {
  int64_t delay_ms = 0;   // sleep on the injected clock before delivering
  bool corrupt = false;   // flip a byte in the payload
  bool drop = false;      // swallow the frame entirely
  bool truncate = false;  // chop the payload's tail (partial delivery)
};

// Decorates a Transport with deterministic receive-side faults, keyed by
// the 0-based index of the received frame — the serving analogue of
// distributed/fault_injection.h. Delays sleep on the injected Clock, so a
// VirtualClock makes "slow reply" tests instant; a dropped frame consumes
// the underlying frame and keeps waiting (which is how a slow reply turns
// into the receiver's DeadlineExceeded with a real timeout).
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(Transport& wrapped, Clock& clock)
      : wrapped_(wrapped), clock_(clock) {}

  // Applies `fault` to the `frame_index`-th received frame.
  void SetFault(int64_t frame_index, TransportFault fault)
      NDV_EXCLUDES(mutex_);

  [[nodiscard]] Status Send(std::string payload) override {
    return wrapped_.Send(std::move(payload));
  }
  [[nodiscard]] StatusOr<std::string> Receive(int64_t timeout_ms)
      NDV_EXCLUDES(mutex_) override;

 private:
  Transport& wrapped_;
  Clock& clock_;
  Mutex mutex_;
  int64_t received_ NDV_GUARDED_BY(mutex_) = 0;
  std::deque<std::pair<int64_t, TransportFault>> faults_
      NDV_GUARDED_BY(mutex_);
};

}  // namespace ndv

#endif  // NDV_TESTS_SUPPORT_TRANSPORT_DOUBLES_H_
