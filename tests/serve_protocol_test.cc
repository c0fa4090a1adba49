#include "serve/protocol.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"

namespace ndv {
namespace {

ColumnStats MakeStats() {
  ColumnStats stats;
  stats.column_name = "age|weird\nname";
  stats.table_rows = 1000000;
  stats.sample_rows = 10000;
  stats.sample_distinct = 812;
  stats.estimate = 950.5;
  stats.lower = 812.0;
  stats.upper = 81200.0;
  stats.method = "GEE";
  stats.coverage = 0.97;
  stats.degraded = true;
  return stats;
}

// Every ColumnStats field set to a distinct value; the name carries the
// text catalog's escape characters, which the binary codec passes verbatim.
ColumnStats GoldenStats() {
  ColumnStats stats;
  stats.column_name = "orders|id%2";
  stats.table_rows = 123456789012;
  stats.sample_rows = 1234567;
  stats.sample_distinct = 654321;
  stats.estimate = 987654.25;
  stats.lower = 654321.0;
  stats.upper = 1.5e7;
  stats.method = "AE";
  stats.coverage = 0.875;
  stats.degraded = true;
  return stats;
}

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out += kDigits[static_cast<unsigned char>(c) >> 4];
    out += kDigits[static_cast<unsigned char>(c) & 0xf];
  }
  return out;
}

// EncodeMessage of the STATS reply in StatsReplyEncodesToPinnedBytes. These
// are the bytes deployed peers parse; any change here is a wire break.
constexpr std::string_view kGoldenStatsReplyHex =
    "0408070605040302012a00000000000000010b0000006f72646572737c696425"
    "32141a99be1c00000087d6120000000000f1fb090000000000000000800c242e"
    "4100000000e2f7234100000000389c6c41000000000000ec3f01020000004145";

TEST(ServeProtocolTest, GetStatsRoundTrips) {
  Message request;
  request.type = MessageType::kGetStats;
  request.request_id = 77;
  request.column = "user_id";
  const auto decoded = DecodeMessage(EncodeMessage(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MessageType::kGetStats);
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_EQ(decoded->column, "user_id");
}

TEST(ServeProtocolTest, AnalyzeRoundTrips) {
  for (const bool force : {false, true}) {
    Message request;
    request.type = MessageType::kAnalyze;
    request.request_id = 5;
    request.force = force;
    const auto decoded = DecodeMessage(EncodeMessage(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, MessageType::kAnalyze);
    EXPECT_EQ(decoded->force, force);
  }
}

TEST(ServeProtocolTest, StatsReplyRoundTripsEveryField) {
  Message reply;
  reply.type = MessageType::kStatsReply;
  reply.request_id = 1234567890123ull;
  reply.epoch = 42;
  reply.stale = true;
  reply.stats = MakeStats();
  const auto decoded = DecodeMessage(EncodeMessage(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MessageType::kStatsReply);
  EXPECT_EQ(decoded->request_id, 1234567890123ull);
  EXPECT_EQ(decoded->epoch, 42u);
  EXPECT_TRUE(decoded->stale);
  const ColumnStats& stats = decoded->stats;
  EXPECT_EQ(stats.column_name, "age|weird\nname");
  EXPECT_EQ(stats.table_rows, 1000000);
  EXPECT_EQ(stats.sample_rows, 10000);
  EXPECT_EQ(stats.sample_distinct, 812);
  EXPECT_DOUBLE_EQ(stats.estimate, 950.5);
  EXPECT_DOUBLE_EQ(stats.lower, 812.0);
  EXPECT_DOUBLE_EQ(stats.upper, 81200.0);
  EXPECT_EQ(stats.method, "GEE");
  EXPECT_DOUBLE_EQ(stats.coverage, 0.97);
  EXPECT_TRUE(stats.degraded);
}

TEST(ServeProtocolTest, StatsReplyEncodesToPinnedBytes) {
  Message reply;
  reply.type = MessageType::kStatsReply;
  reply.request_id = 0x0102030405060708ull;
  reply.epoch = 42;
  reply.stale = true;
  reply.stats = GoldenStats();
  EXPECT_EQ(ToHex(EncodeMessage(reply)), kGoldenStatsReplyHex);
}

TEST(ServeProtocolTest, ListReplyRoundTrips) {
  Message reply;
  reply.type = MessageType::kListReply;
  reply.epoch = 9;
  reply.columns = {"a", "", "with|pipe", std::string(1000, 'x')};
  const auto decoded = DecodeMessage(EncodeMessage(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->columns, reply.columns);
  EXPECT_EQ(decoded->epoch, 9u);
}

TEST(ServeProtocolTest, ErrorRoundTripsThroughStatus) {
  const Status original = UnavailableError("overloaded: back off");
  Message error = ErrorMessage(original);
  error.request_id = 3;
  const auto decoded = DecodeMessage(EncodeMessage(error));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Status restored = StatusFromError(*decoded);
  EXPECT_EQ(restored.code(), StatusCode::kUnavailable);
  EXPECT_EQ(restored.message(), "overloaded: back off");
}

TEST(ServeProtocolTest, TruncatedPayloadIsDataLossNotCrash) {
  Message reply;
  reply.type = MessageType::kStatsReply;
  reply.stats = MakeStats();
  const std::string payload = EncodeMessage(reply);
  // Every proper prefix must decode to a typed error, never abort.
  for (size_t len = 0; len < payload.size(); ++len) {
    const auto decoded = DecodeMessage(payload.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
    EXPECT_TRUE(decoded.status().code() == StatusCode::kDataLoss ||
                decoded.status().code() == StatusCode::kInvalidArgument)
        << decoded.status().ToString();
  }
}

TEST(ServeProtocolTest, TrailingGarbageIsDataLoss) {
  Message request;
  request.type = MessageType::kList;
  const auto decoded = DecodeMessage(EncodeMessage(request) + "extra");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(ServeProtocolTest, ListReplyCountBeyondPayloadIsDataLoss) {
  // A 21-byte LIST_OK claiming 2^20 names. Each name takes at least its
  // 4-byte length, so the count is refused before anything is reserved
  // for it, not after a 32 MiB reservation.
  Message reply;
  reply.type = MessageType::kListReply;
  std::string payload = EncodeMessage(reply);
  ASSERT_EQ(payload.size(), 21u);
  const uint32_t count = 1u << 20;
  std::memcpy(payload.data() + payload.size() - 4, &count, sizeof(count));
  const auto decoded = DecodeMessage(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("LIST_OK count"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(ServeProtocolTest, UnknownMessageTypeIsInvalidArgument) {
  Message request;
  request.type = MessageType::kList;
  std::string payload = EncodeMessage(request);
  payload[0] = '\x63';  // No such message type.
  const auto decoded = DecodeMessage(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, FrameRoundTripsThroughExtract) {
  std::string wire;
  ASSERT_TRUE(AppendFrame(&wire, "hello").ok());
  ASSERT_TRUE(AppendFrame(&wire, "").ok());
  ASSERT_TRUE(AppendFrame(&wire, std::string(1000, 'z')).ok());

  auto first = ExtractFrame(&wire);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ(**first, "hello");
  auto second = ExtractFrame(&wire);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ(**second, "");
  auto third = ExtractFrame(&wire);
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(third->has_value());
  EXPECT_EQ((*third)->size(), 1000u);
  auto done = ExtractFrame(&wire);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done->has_value());
  EXPECT_TRUE(wire.empty());
}

TEST(ServeProtocolTest, ExtractFrameIsIncremental) {
  std::string full;
  ASSERT_TRUE(AppendFrame(&full, "payload-bytes").ok());
  // Feed the wire image one byte at a time; the frame must pop out exactly
  // once, at the final byte, with the buffer untouched before that.
  std::string buffer;
  for (size_t i = 0; i < full.size(); ++i) {
    buffer.push_back(full[i]);
    auto frame = ExtractFrame(&buffer);
    ASSERT_TRUE(frame.ok());
    if (i + 1 < full.size()) {
      EXPECT_FALSE(frame->has_value()) << "frame surfaced early at " << i;
    } else {
      ASSERT_TRUE(frame->has_value());
      EXPECT_EQ(**frame, "payload-bytes");
    }
  }
}

TEST(ServeProtocolTest, OversizeLengthPrefixIsDataLoss) {
  // A 4-byte little-endian length far beyond kMaxFramePayload.
  std::string buffer = {'\xff', '\xff', '\xff', '\x7f'};
  const auto frame = ExtractFrame(&buffer);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(ServeProtocolTest, AppendFrameRejectsOversizePayload) {
  std::string wire;
  const Status status =
      AppendFrame(&wire, std::string(kMaxFramePayload + 1, 'a'));
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(wire.empty());
}

TEST(ServeProtocolTest, CorruptedByteNeverAborts) {
  // Flip every byte of a frame payload in turn: decode must stay total.
  Message reply;
  reply.type = MessageType::kStatsReply;
  reply.request_id = 9;
  reply.epoch = 2;
  reply.stats = MakeStats();
  const std::string payload = EncodeMessage(reply);
  for (size_t i = 0; i < payload.size(); ++i) {
    std::string mutated = payload;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    const auto decoded = DecodeMessage(mutated);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().code() == StatusCode::kDataLoss ||
                  decoded.status().code() == StatusCode::kInvalidArgument)
          << decoded.status().ToString();
    }
  }
}

}  // namespace
}  // namespace ndv
