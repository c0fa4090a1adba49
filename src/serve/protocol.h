#ifndef NDV_SERVE_PROTOCOL_H_
#define NDV_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/stats_catalog.h"
#include "common/status.h"

namespace ndv {

// Wire protocol of the NDV stats service (DESIGN.md §13).
//
// Framing: every message travels as
//     u32 payload_length (little-endian) | payload
// where payload = u8 message type | u64 request id | type-specific body.
// The request id is chosen by the client and echoed verbatim in the reply,
// so a retry after a timed-out attempt can discard the late reply of the
// previous attempt instead of mis-pairing it. Payloads are capped
// at kMaxFramePayload so a garbage length prefix cannot make a peer buffer
// gigabytes. Bodies use the common/byte_codec.h conventions (fixed-width
// little-endian integers, u32-length-prefixed strings, doubles as their
// IEEE-754 bit pattern); a ColumnStats is its PutColumnStats image.
//
// Requests:  GET_STATS {column}, ANALYZE {force}, LIST {}
// Responses: STATS {epoch, stale, ColumnStats}, LIST_OK {epoch, names},
//            ANALYZE_OK {epoch, columns, refreshed}, ERROR {code, message}
//
// Decode failures are typed, never fatal: a truncated or trailing-garbage
// body is DataLoss, an unknown message type or status code is
// InvalidArgument. A server answers a malformed frame with an ERROR frame;
// a client treats one as a failed (retryable, for DataLoss) attempt.

inline constexpr size_t kMaxFramePayload = 1 << 20;  // 1 MiB

enum class MessageType : uint8_t {
  kGetStats = 1,
  kAnalyze = 2,
  kList = 3,
  kStatsReply = 4,
  kListReply = 5,
  kAnalyzeReply = 6,
  kError = 7,
};

std::string_view MessageTypeName(MessageType type);

// One protocol message, request or response; `type` says which fields are
// meaningful. A single tagged struct keeps encode/decode total (every
// decodable payload maps to exactly one Message) without a class hierarchy.
struct Message {
  MessageType type = MessageType::kList;

  // Client-chosen correlation id, echoed by the server in every reply.
  uint64_t request_id = 0;

  // kGetStats
  std::string column;
  // kAnalyze: re-analyze even when no column is stale.
  bool force = false;

  // All replies: catalog generation that answered.
  uint64_t epoch = 0;
  // kStatsReply
  ColumnStats stats;
  bool stale = false;  // staleness verdict at reply time (DESIGN.md §13)
  // kListReply
  std::vector<std::string> columns;
  // kAnalyzeReply
  int64_t analyzed_columns = 0;
  bool refreshed = false;  // false = cache hit, nothing was stale
  // kError
  StatusCode error_code = StatusCode::kInternal;
  std::string error_message;
};

// Serializes `message` into a frame payload (no length prefix).
std::string EncodeMessage(const Message& message);

// Parses one frame payload. Total: any input yields a Message or a typed
// error (DataLoss for truncation, trailing bytes, oversize strings or a
// LIST_OK count the remaining bytes cannot hold; InvalidArgument for
// unknown enum values and bool bytes other than 0/1). Never aborts.
StatusOr<Message> DecodeMessage(std::string_view payload);

// Appends the length-prefixed frame for `payload` to `wire`.
Status AppendFrame(std::string* wire, std::string_view payload);

// Incremental deframer for a byte-stream transport. Consumes at most one
// complete frame from the front of `buffer`:
//   - complete frame: returns its payload, erases it from `buffer`;
//   - incomplete: returns std::nullopt, buffer untouched (read more bytes);
//   - oversize length prefix: DataLoss (the stream is unrecoverable).
StatusOr<std::optional<std::string>> ExtractFrame(std::string* buffer);

// Convenience: the ERROR message for a Status.
Message ErrorMessage(const Status& status);
// And back: the Status carried by an ERROR message.
Status StatusFromError(const Message& message);

}  // namespace ndv

#endif  // NDV_SERVE_PROTOCOL_H_
