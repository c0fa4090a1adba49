#ifndef NDV_SERVE_TRANSPORT_H_
#define NDV_SERVE_TRANSPORT_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace ndv {

// A bidirectional, message-oriented byte channel: one endpoint of a
// client/server connection. Implementations deliver whole frame payloads
// (the protocol.h length prefix is a wire detail below this interface).
//
// Error vocabulary (matches distributed/retry.h classification):
//   kUnavailable      peer closed / channel down / bounded queue full
//   kDeadlineExceeded Receive timed out
//   kDataLoss         bytes arrived but failed framing (socket transport)
class Transport {
 public:
  virtual ~Transport() = default;

  // Enqueues/writes one frame payload. Non-blocking for a queue-backed
  // transport: a full bounded queue is an Unavailable error (backpressure),
  // not a stall. Discarding the Status drops the backpressure signal, so
  // callers must consume it ([[nodiscard]] via Status itself; restated
  // here for the interface contract).
  [[nodiscard]] virtual Status Send(std::string payload) = 0;

  // Blocks up to `timeout_ms` for the next inbound frame payload.
  // timeout_ms <= 0 waits forever. DeadlineExceeded on timeout,
  // Unavailable once the peer has closed and the queue is drained.
  [[nodiscard]] virtual StatusOr<std::string> Receive(int64_t timeout_ms) = 0;
};

}  // namespace ndv

#endif  // NDV_SERVE_TRANSPORT_H_
