#include "serve/protocol.h"

#include <cstring>

#include "common/byte_codec.h"

namespace ndv {

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kGetStats: return "GET_STATS";
    case MessageType::kAnalyze: return "ANALYZE";
    case MessageType::kList: return "LIST";
    case MessageType::kStatsReply: return "STATS";
    case MessageType::kListReply: return "LIST_OK";
    case MessageType::kAnalyzeReply: return "ANALYZE_OK";
    case MessageType::kError: return "ERROR";
  }
  return "UNKNOWN";
}

std::string EncodeMessage(const Message& message) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(message.type));
  PutU64(&out, message.request_id);
  switch (message.type) {
    case MessageType::kGetStats:
      PutString(&out, message.column);
      break;
    case MessageType::kAnalyze:
      PutBool(&out, message.force);
      break;
    case MessageType::kList:
      break;
    case MessageType::kStatsReply:
      PutU64(&out, message.epoch);
      PutBool(&out, message.stale);
      PutColumnStats(&out, message.stats);
      break;
    case MessageType::kListReply:
      PutU64(&out, message.epoch);
      PutU32(&out, static_cast<uint32_t>(message.columns.size()));
      for (const std::string& name : message.columns) {
        PutString(&out, name);
      }
      break;
    case MessageType::kAnalyzeReply:
      PutU64(&out, message.epoch);
      PutI64(&out, message.analyzed_columns);
      PutBool(&out, message.refreshed);
      break;
    case MessageType::kError:
      PutU8(&out, static_cast<uint8_t>(message.error_code));
      PutString(&out, message.error_message);
      break;
  }
  return out;
}

StatusOr<Message> DecodeMessage(std::string_view payload) {
  ByteReader reader(payload, kMaxFramePayload);
  uint8_t type_byte = 0;
  NDV_RETURN_IF_ERROR(reader.TakeU8(&type_byte));
  if (type_byte < static_cast<uint8_t>(MessageType::kGetStats) ||
      type_byte > static_cast<uint8_t>(MessageType::kError)) {
    return InvalidArgumentError("unknown message type %u",
                                static_cast<unsigned>(type_byte));
  }
  Message message;
  message.type = static_cast<MessageType>(type_byte);
  NDV_RETURN_IF_ERROR(reader.TakeU64(&message.request_id));
  switch (message.type) {
    case MessageType::kGetStats:
      NDV_RETURN_IF_ERROR(reader.TakeString(&message.column));
      break;
    case MessageType::kAnalyze:
      NDV_RETURN_IF_ERROR(reader.TakeBool(&message.force));
      break;
    case MessageType::kList:
      break;
    case MessageType::kStatsReply:
      NDV_RETURN_IF_ERROR(reader.TakeU64(&message.epoch));
      NDV_RETURN_IF_ERROR(reader.TakeBool(&message.stale));
      NDV_RETURN_IF_ERROR(TakeColumnStats(&reader, &message.stats));
      break;
    case MessageType::kListReply: {
      NDV_RETURN_IF_ERROR(reader.TakeU64(&message.epoch));
      uint32_t count = 0;
      NDV_RETURN_IF_ERROR(reader.TakeU32(&count));
      // Every name takes at least its 4-byte length, so a count beyond
      // remaining() / 4 is corrupt; refuse it before reserving for it.
      if (count > reader.remaining() / 4) {
        return DataLossError("LIST_OK count %u exceeds the %zu bytes left",
                             static_cast<unsigned>(count),
                             reader.remaining());
      }
      message.columns.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        std::string name;
        NDV_RETURN_IF_ERROR(reader.TakeString(&name));
        message.columns.push_back(std::move(name));
      }
      break;
    }
    case MessageType::kAnalyzeReply:
      NDV_RETURN_IF_ERROR(reader.TakeU64(&message.epoch));
      NDV_RETURN_IF_ERROR(reader.TakeI64(&message.analyzed_columns));
      NDV_RETURN_IF_ERROR(reader.TakeBool(&message.refreshed));
      break;
    case MessageType::kError: {
      uint8_t code_byte = 0;
      NDV_RETURN_IF_ERROR(reader.TakeU8(&code_byte));
      if (code_byte > static_cast<uint8_t>(StatusCode::kInternal)) {
        return InvalidArgumentError("unknown status code %u in ERROR frame",
                                    static_cast<unsigned>(code_byte));
      }
      message.error_code = static_cast<StatusCode>(code_byte);
      NDV_RETURN_IF_ERROR(reader.TakeString(&message.error_message));
      break;
    }
  }
  NDV_RETURN_IF_ERROR(reader.ExpectEnd());
  return message;
}

Status AppendFrame(std::string* wire, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return InvalidArgumentError("frame payload of %zu bytes exceeds the %zu "
                                "byte cap",
                                payload.size(), kMaxFramePayload);
  }
  PutU32(wire, static_cast<uint32_t>(payload.size()));
  wire->append(payload.data(), payload.size());
  return Status::Ok();
}

StatusOr<std::optional<std::string>> ExtractFrame(std::string* buffer) {
  if (buffer->size() < 4) return std::optional<std::string>();
  uint32_t length = 0;
  std::memcpy(&length, buffer->data(), 4);
  if (length > kMaxFramePayload) {
    return DataLossError(
        "frame length prefix %u exceeds the %zu byte cap; stream is corrupt",
        static_cast<unsigned>(length), kMaxFramePayload);
  }
  if (buffer->size() - 4 < length) return std::optional<std::string>();
  std::string payload = buffer->substr(4, length);
  buffer->erase(0, 4 + static_cast<size_t>(length));
  return std::optional<std::string>(std::move(payload));
}

Message ErrorMessage(const Status& status) {
  Message message;
  message.type = MessageType::kError;
  message.error_code = status.code();
  message.error_message = status.message();
  return message;
}

Status StatusFromError(const Message& message) {
  return Status(message.error_code, message.error_message);
}

}  // namespace ndv
