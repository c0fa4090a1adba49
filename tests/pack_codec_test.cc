// The pack block-codec layer's contract: every encoder output validates
// and decodes back to the input values (round trip), the auto policy only
// picks a codec when it actually shrinks the block, validators reject
// every malformed claim with a Status naming the first bad row (never a
// crash), and the streaming checksummer is CRC-64/NVME: it matches the
// catalogued check value and its golden value, the PCLMUL fold equals the
// table at every length, offset and chunking, it is chunking-invariant and
// length-sensitive, and it sees every single-bit flip and every burst of
// up to 64 bits.

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd_hash.h"
#include "storage/pack_codec.h"

namespace ndv {
namespace {

std::vector<int64_t> DecodeInt64(PackBlockEncoding enc, int64_t rows,
                                 const std::string& payload) {
  std::vector<int64_t> out(static_cast<size_t>(rows));
  DecodeInt64Block(enc.codec, enc.param, rows,
                   reinterpret_cast<const uint8_t*>(payload.data()),
                   out.data());
  return out;
}

std::vector<int32_t> DecodeCodes(PackBlockEncoding enc, int64_t rows,
                                 const std::string& payload) {
  std::vector<int32_t> out(static_cast<size_t>(rows));
  DecodeCodesBlock(enc.codec, enc.param, rows,
                   reinterpret_cast<const uint8_t*>(payload.data()),
                   out.data());
  return out;
}

// Encode -> validate -> decode must reproduce `values` for every policy.
void ExpectInt64RoundTrip(const std::vector<int64_t>& values,
                          PackCodecChoice choice) {
  std::string payload;
  const PackBlockEncoding enc = EncodeInt64Block(values, choice, &payload);
  const auto rows = static_cast<int64_t>(values.size());
  const Status valid = ValidateValueBlock(enc.codec, enc.param,
                                          /*is_double=*/false, rows,
                                          payload.size());
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(DecodeInt64(enc, rows, payload), values)
      << "choice " << PackCodecChoiceName(choice) << " codec "
      << PackBlockCodecName(enc.codec) << " width " << int{enc.param};
}

TEST(PackCodecTest, Int64RoundTripsEveryPolicyAndShape) {
  const std::vector<std::vector<int64_t>> shapes = {
      {0},                         // 1 row
      {7, 7, 7, 7, 7},             // constant run (width-0 zero-order-hold)
      {1, 2, 3, 4, 5, 6, 7},       // unit deltas, odd length
      {100, 90, 95, 105, 80},      // mixed-sign small deltas
      {0, 1000, -1000, 500000},    // width-4 deltas
      {std::numeric_limits<int64_t>::min(),
       std::numeric_limits<int64_t>::max(), 0,
       std::numeric_limits<int64_t>::min()},  // wrapping deltas
      std::vector<int64_t>(4097, -3),         // crosses the default block
  };
  for (const auto& values : shapes) {
    for (const auto choice :
         {PackCodecChoice::kAutoCodec, PackCodecChoice::kForceRaw,
          PackCodecChoice::kForceDelta, PackCodecChoice::kForceDict}) {
      SCOPED_TRACE(PackCodecChoiceName(choice));
      ExpectInt64RoundTrip(values, choice);
    }
  }
}

TEST(PackCodecTest, DeltaWidthMatchesTheData) {
  std::string payload;
  // Constant run: width 0, payload is just the 8-byte base.
  auto enc = EncodeInt64Block(std::vector<int64_t>{5, 5, 5, 5},
                              PackCodecChoice::kForceDelta, &payload);
  EXPECT_EQ(enc.codec, PackBlockCodec::kDelta);
  EXPECT_EQ(enc.param, 0);
  EXPECT_EQ(payload.size(), 8u);

  payload.clear();
  enc = EncodeInt64Block(std::vector<int64_t>{0, 1, -1, 100},
                         PackCodecChoice::kForceDelta, &payload);
  EXPECT_EQ(enc.param, 1);
  EXPECT_EQ(payload.size(), 8u + 3u);

  payload.clear();
  enc = EncodeInt64Block(std::vector<int64_t>{0, 30000, 0},
                         PackCodecChoice::kForceDelta, &payload);
  EXPECT_EQ(enc.param, 2);
  EXPECT_EQ(payload.size(), 8u + 2u * 2u);
}

TEST(PackCodecTest, AutoPicksDeltaOnlyWhenStrictlySmaller) {
  // Sorted small-delta data: delta (8 + n-1 bytes) beats raw (8n bytes).
  std::string payload;
  std::vector<int64_t> sorted(64);
  for (size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = static_cast<int64_t>(i * 3);
  }
  auto enc = EncodeInt64Block(sorted, PackCodecChoice::kAutoCodec, &payload);
  EXPECT_EQ(enc.codec, PackBlockCodec::kDelta);
  EXPECT_LT(payload.size(), sorted.size() * 8);

  // Full-width deltas: delta would cost 8 + 8(n-1) = raw, so raw wins.
  payload.clear();
  const std::vector<int64_t> jumpy = {
      0, std::numeric_limits<int64_t>::max(), -1,
      std::numeric_limits<int64_t>::min(), 1};
  enc = EncodeInt64Block(jumpy, PackCodecChoice::kAutoCodec, &payload);
  EXPECT_EQ(enc.codec, PackBlockCodec::kRaw);
  EXPECT_EQ(payload.size(), jumpy.size() * 8);
}

TEST(PackCodecTest, DoubleBlocksAlwaysEncodeRaw) {
  std::string payload;
  const std::vector<double> values = {
      0.0, -0.0, 1.5, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity()};
  const PackBlockEncoding enc = EncodeDoubleBlock(values, &payload);
  EXPECT_EQ(enc.codec, PackBlockCodec::kRaw);
  EXPECT_EQ(payload.size(), values.size() * 8);
  const Status valid =
      ValidateValueBlock(enc.codec, enc.param, /*is_double=*/true,
                         static_cast<int64_t>(values.size()), payload.size());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(PackCodecTest, CodesRoundTripAtEveryWidth) {
  const std::vector<std::pair<std::vector<int32_t>, uint8_t>> cases = {
      {{0}, 1},                      // 1 row, width 1
      {{0, 1, 2, 255, 7}, 1},        // max code 255 still fits width 1
      {{0, 256, 70, 65535}, 2},      // width 2
      {{0, 65536, 5}, 4},            // width 4
  };
  for (const auto& [codes, want_width] : cases) {
    std::string payload;
    const PackBlockEncoding enc =
        EncodeCodesBlock(codes, PackCodecChoice::kAutoCodec, &payload);
    const auto rows = static_cast<int64_t>(codes.size());
    const uint64_t dict_count =
        static_cast<uint64_t>(
            *std::max_element(codes.begin(), codes.end())) + 1;
    if (want_width < 4) {
      EXPECT_EQ(enc.codec, PackBlockCodec::kDictCodes);
      EXPECT_EQ(enc.param, want_width);
    } else {
      // Width-4 dict codes save nothing over the raw int32 array.
      EXPECT_EQ(enc.codec, PackBlockCodec::kRaw);
    }
    const Status valid = ValidateCodesBlock(
        enc.codec, enc.param, rows,
        {reinterpret_cast<const uint8_t*>(payload.data()), payload.size()},
        dict_count);
    ASSERT_TRUE(valid.ok()) << valid.ToString();
    EXPECT_EQ(DecodeCodes(enc, rows, payload), codes);
  }
}

std::string Bytes(std::initializer_list<uint8_t> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

// Validates a hand-written delta payload, then decodes it.
std::vector<int64_t> DecodeDeltaBytes(uint8_t width, int64_t rows,
                                      const std::string& payload) {
  const Status valid = ValidateValueBlock(PackBlockCodec::kDelta, width,
                                          /*is_double=*/false, rows,
                                          payload.size());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  return DecodeInt64({PackBlockCodec::kDelta, width}, rows, payload);
}

TEST(PackCodecTest, DeltaDecodesHandWrittenBytesAtEveryWidth) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Width 0: the base alone, held for every row.
  EXPECT_EQ(DecodeDeltaBytes(0, 7, Bytes({0xd6, 0xff, 0xff, 0xff, 0xff, 0xff,
                                          0xff, 0xff})),
            std::vector<int64_t>(7, -42));
  // Width 1: base 10, deltas -128, 127, -1, 1.
  EXPECT_EQ(DecodeDeltaBytes(1, 5, Bytes({0x0a, 0, 0, 0, 0, 0, 0, 0,  //
                                          0x80, 0x7f, 0xff, 0x01})),
            (std::vector<int64_t>{10, -118, 9, 8, 9}));
  // Width 2: base -1, deltas -32768, 32767, 32767, -32768.
  EXPECT_EQ(DecodeDeltaBytes(2, 5, Bytes({0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                          0xff, 0xff,  //
                                          0x00, 0x80, 0xff, 0x7f, 0xff, 0x7f,
                                          0x00, 0x80})),
            (std::vector<int64_t>{-1, -32769, -2, 32765, -3}));
  // Width 4: base 0, deltas INT32_MIN, INT32_MAX, INT32_MAX, 1.
  EXPECT_EQ(DecodeDeltaBytes(4, 5, Bytes({0, 0, 0, 0, 0, 0, 0, 0,  //
                                          0x00, 0x00, 0x00, 0x80,  //
                                          0xff, 0xff, 0xff, 0x7f,  //
                                          0xff, 0xff, 0xff, 0x7f,  //
                                          0x01, 0x00, 0x00, 0x00})),
            (std::vector<int64_t>{0, -2147483648LL, -1, 2147483646LL,
                                  2147483647LL}));
  // Width 8: base INT64_MAX, deltas 1, -1, INT64_MIN, INT64_MAX; the
  // running value wraps through INT64_MIN and back.
  EXPECT_EQ(
      DecodeDeltaBytes(8, 5,
                       Bytes({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
                              0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                              0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                              0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
                              0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})),
      (std::vector<int64_t>{kMax, kMin, kMax, -1, kMax - 1}));
}

TEST(PackCodecTest, DeltaDecodesALongOddBlockOfExtremeDeltas) {
  // 4097 rows: 4096 width-1 deltas alternating 127, -128 after a base of
  // 5, so the decoder's tail runs past any power-of-two stride.
  constexpr int64_t kRows = 4097;
  std::string payload = Bytes({0x05, 0, 0, 0, 0, 0, 0, 0});
  std::vector<int64_t> want = {5};
  for (int64_t i = 1; i < kRows; ++i) {
    const bool up = i % 2 == 1;
    payload.push_back(static_cast<char>(up ? 0x7f : 0x80));
    want.push_back(want.back() + (up ? 127 : -128));
  }
  EXPECT_EQ(DecodeDeltaBytes(1, kRows, payload), want);
}

TEST(PackCodecTest, DictCodesDecodeHandWrittenBytesAtEveryWidth) {
  struct Case {
    uint8_t width;
    std::string payload;
    std::vector<int32_t> codes;
  };
  const Case cases[] = {
      {1, Bytes({0x00, 0xff, 0x07, 0xff, 0x01}), {0, 255, 7, 255, 1}},
      {2,
       Bytes({0xff, 0xff, 0x00, 0x00, 0x34, 0x12, 0xff, 0xff, 0x01, 0x00}),
       {65535, 0, 0x1234, 65535, 1}},
      {4,
       Bytes({0xff, 0xff, 0xff, 0x7f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
              0x01, 0x00, 0xff, 0xff, 0xff, 0x7f, 0x78, 0x56, 0x34, 0x12}),
       {std::numeric_limits<int32_t>::max(), 0, 65536,
        std::numeric_limits<int32_t>::max(), 0x12345678}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("width " + std::to_string(c.width));
    const auto rows = static_cast<int64_t>(c.codes.size());
    const uint64_t dict_count =
        static_cast<uint64_t>(
            *std::max_element(c.codes.begin(), c.codes.end())) + 1;
    const Status valid = ValidateCodesBlock(
        PackBlockCodec::kDictCodes, c.width, rows,
        {reinterpret_cast<const uint8_t*>(c.payload.data()),
         c.payload.size()},
        dict_count);
    ASSERT_TRUE(valid.ok()) << valid.ToString();
    EXPECT_EQ(DecodeCodes({PackBlockCodec::kDictCodes, c.width}, rows,
                          c.payload),
              c.codes);
    // kForceDict writes exactly these bytes, width 4 included (auto would
    // emit raw there).
    std::string encoded;
    const PackBlockEncoding enc =
        EncodeCodesBlock(c.codes, PackCodecChoice::kForceDict, &encoded);
    EXPECT_EQ(enc.codec, PackBlockCodec::kDictCodes);
    EXPECT_EQ(enc.param, c.width);
    EXPECT_EQ(encoded, c.payload);
  }
}

TEST(PackCodecTest, ValidatorsRejectMalformedClaims) {
  // Wrong payload length for the claimed codec/rows.
  EXPECT_FALSE(ValidateValueBlock(PackBlockCodec::kRaw, 0, false, 4, 31).ok());
  EXPECT_FALSE(ValidateValueBlock(PackBlockCodec::kDelta, 1, false, 4, 12).ok());
  // Dict codes are not a value codec; delta is not a double codec.
  EXPECT_FALSE(
      ValidateValueBlock(PackBlockCodec::kDictCodes, 1, false, 4, 4).ok());
  EXPECT_FALSE(ValidateValueBlock(PackBlockCodec::kDelta, 1, true, 4, 11).ok());
  // Illegal delta widths.
  EXPECT_FALSE(ValidateValueBlock(PackBlockCodec::kDelta, 3, false, 4, 17).ok());
  EXPECT_FALSE(ValidateValueBlock(PackBlockCodec::kDelta, 9, false, 4, 35).ok());

  // A code out of dictionary range is caught at validation, before decode.
  const std::vector<int32_t> codes = {0, 1, 2, 3};
  std::string payload;
  const PackBlockEncoding enc =
      EncodeCodesBlock(codes, PackCodecChoice::kForceDict, &payload);
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  EXPECT_TRUE(ValidateCodesBlock(enc.codec, enc.param, 4, bytes, 4).ok());
  const Status reject = ValidateCodesBlock(enc.codec, enc.param, 4, bytes, 3);
  ASSERT_FALSE(reject.ok());
  EXPECT_EQ(reject.code(), StatusCode::kDataLoss);
  // Illegal code width (with the 12 bytes 4 rows of width 3 would take).
  const std::vector<uint8_t> twelve(12, 0);
  EXPECT_FALSE(
      ValidateCodesBlock(PackBlockCodec::kDictCodes, 3, 4, twelve, 4).ok());
}

// A code block of `codes` at `width` bytes per code (4 = raw int32).
std::string CodeBlockBytes(const std::vector<int64_t>& codes, size_t width) {
  std::string out;
  for (const int64_t code : codes) {
    const auto bits = static_cast<uint64_t>(code);
    for (size_t b = 0; b < width; ++b) {
      out.push_back(static_cast<char>((bits >> (8 * b)) & 0xff));
    }
  }
  return out;
}

TEST(PackCodecTest, CodeValidationNamesTheFirstBadRowAtEveryWidth) {
  struct Case {
    PackBlockCodec codec;
    uint8_t param;
    size_t width;
    uint64_t dict_count;
  };
  const Case cases[] = {
      {PackBlockCodec::kRaw, 0, 4, 70000},
      {PackBlockCodec::kDictCodes, 1, 1, 200},
      {PackBlockCodec::kDictCodes, 2, 2, 1000},
      {PackBlockCodec::kDictCodes, 4, 4, 70000},
  };
  constexpr size_t kRows = 1001;
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(PackBlockCodecName(c.codec)) + " width " +
                 std::to_string(c.width));
    std::vector<int64_t> codes(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      codes[i] = static_cast<int64_t>((i * 7919) % c.dict_count);
    }
    codes[kRows / 2] = static_cast<int64_t>(c.dict_count) - 1;
    const auto validate = [&](const std::vector<int64_t>& block) {
      const std::string bytes = CodeBlockBytes(block, c.width);
      return ValidateCodesBlock(
          c.codec, c.param, static_cast<int64_t>(kRows),
          {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()},
          c.dict_count);
    };
    const Status valid = validate(codes);
    EXPECT_TRUE(valid.ok()) << valid.ToString();

    for (const size_t row : {size_t{0}, kRows / 2, kRows - 1}) {
      std::vector<int64_t> bad = codes;
      bad[row] = static_cast<int64_t>(c.dict_count);
      bad[kRows - 1] = static_cast<int64_t>(c.dict_count);  // Not first.
      const Status status = validate(bad);
      ASSERT_FALSE(status.ok()) << "row " << row;
      EXPECT_EQ(status.code(), StatusCode::kDataLoss);
      EXPECT_EQ(status.message(),
                "code " + std::to_string(c.dict_count) + " at block row " +
                    std::to_string(row) + " outside dictionary of " +
                    std::to_string(c.dict_count));
      if (c.codec != PackBlockCodec::kRaw) continue;
      bad = codes;
      bad[row] = -5;
      const Status negative = validate(bad);
      ASSERT_FALSE(negative.ok()) << "row " << row;
      EXPECT_EQ(negative.code(), StatusCode::kDataLoss);
      EXPECT_EQ(negative.message(),
                "negative code -5 at block row " + std::to_string(row));
    }
  }
}

TEST(PackCodecTest, ChecksumIsTheCataloguedCrc64Nvme) {
  // The CRC catalogue's check value for CRC-64/NVME (NVMe, S3 CRC64NVME).
  EXPECT_EQ(Crc64Nvme("123456789"), 0xae8b14860a799888ULL);
  EXPECT_EQ(Crc64Nvme({}), 0u);
}

TEST(PackCodecTest, ChecksumMatchesItsGoldenValue) {
  // Pins the on-disk checksum of format v4; also checked against a bitwise
  // model of the CRC outside this code base.
  std::string data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<char>(i * 7));
  EXPECT_EQ(Crc64Nvme(data), 0x9a9a15922194c6caULL);
}

// Every available level's CRC register, from a register that is not the
// init value, equals the scalar table's.
TEST(PackCodecTest, EveryLevelMatchesTheTableAtEveryLengthAndOffset) {
  std::vector<uint8_t> buffer(4096 + 16);
  Rng rng(0x5eed);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.NextU64());
  for (const SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (!SimdLevelAvailable(level)) continue;
    SCOPED_TRACE(SimdLevelName(level));
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t length = 0; length <= 4096; ++length) {
        const uint64_t start = Hash64(offset * 4097 + length);
        const uint8_t* bytes = buffer.data() + offset;
        ASSERT_EQ(Crc64NvmeUpdateAt(level, start, bytes, length),
                  Crc64NvmeUpdateAt(SimdLevel::kScalar, start, bytes, length))
            << "offset " << offset << " length " << length;
      }
    }
  }
}

TEST(PackCodecTest, EveryLevelMatchesTheTableUnderRandomChunkings) {
  std::vector<uint8_t> buffer(size_t{1} << 20);
  Rng rng(0xc4c);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.NextU64());
  const uint64_t want = Crc64NvmeUpdateAt(SimdLevel::kScalar, ~uint64_t{0},
                                          buffer.data(), buffer.size());
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (!SimdLevelAvailable(level)) continue;
    SCOPED_TRACE(SimdLevelName(level));
    for (int trial = 0; trial < 8; ++trial) {
      // Chunks from 0 bytes to a few KiB, so the fold starts from a live
      // register at every alignment and the table takes short chunks.
      uint64_t crc = ~uint64_t{0};
      size_t pos = 0;
      while (pos < buffer.size()) {
        const int64_t max_chunk = trial % 2 == 0 ? 200 : 5000;
        const auto chunk =
            std::min(buffer.size() - pos,
                     static_cast<size_t>(rng.NextInRange(0, max_chunk)));
        crc = Crc64NvmeUpdateAt(level, crc, buffer.data() + pos, chunk);
        pos += chunk;
      }
      EXPECT_EQ(crc, want) << "trial " << trial;
    }
  }
}

TEST(PackCodecTest, ChecksummerIsChunkingInvariantAndLengthSensitive) {
  std::string data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<char>(i * 7));

  // Every total length from empty through three 64-byte fold blocks and a
  // tail, and the whole input, under chunkings that straddle the 8-byte
  // table word and the 16- and 64-byte fold edges.
  std::vector<size_t> lengths(201);
  for (size_t length = 0; length < lengths.size(); ++length) {
    lengths[length] = length;
  }
  lengths.push_back(data.size());
  for (const size_t length : lengths) {
    const std::string_view prefix = std::string_view(data).substr(0, length);
    const uint64_t want = Crc64Nvme(prefix);
    for (const size_t chunk : {1u, 7u, 63u, 64u, 65u, 127u, 999u}) {
      PackChecksummer sum;
      for (size_t i = 0; i < prefix.size(); i += chunk) {
        sum.Append(prefix.substr(i, chunk));
      }
      EXPECT_EQ(sum.Finish(), want) << "length " << length << " chunk "
                                    << chunk;
    }
  }

  const uint64_t whole = Crc64Nvme(data);
  // Finish() is idempotent (does not consume state).
  PackChecksummer sum;
  sum.Append(data);
  EXPECT_EQ(sum.Finish(), whole);
  EXPECT_EQ(sum.Finish(), whole);

  // Trailing zeros change the checksum: the all-ones init keeps a leading
  // or trailing zero byte from being a no-op on the register.
  std::string padded = data;
  padded.append(8, '\0');
  EXPECT_NE(Crc64Nvme(padded), whole);
  EXPECT_NE(Crc64Nvme({}), Crc64Nvme(std::string_view("\0", 1)));
}

TEST(PackCodecTest, ChecksumSeesAFlipInEveryLaneAndInTheTail) {
  // Two 64-byte blocks and a 13-byte tail: a flip in each word of the
  // second block and in the tail the table finishes. Every flip changes
  // the sum, and no two collide.
  std::string data;
  for (int i = 0; i < 2 * 64 + 13; ++i) {
    data.push_back(static_cast<char>(i * 31 + 5));
  }
  const uint64_t clean = Crc64Nvme(data);
  std::vector<size_t> positions;
  for (size_t lane = 0; lane < 8; ++lane) {
    positions.push_back(64 + 9 * lane);  // Byte `lane` of word `lane`.
  }
  for (const size_t tail : {size_t{128}, size_t{135}, size_t{136},
                            size_t{140}}) {
    positions.push_back(tail);
  }
  std::vector<uint64_t> sums = {clean};
  for (const size_t pos : positions) {
    std::string flipped = data;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x01);
    const uint64_t sum = Crc64Nvme(flipped);
    EXPECT_NE(sum, clean) << "flip at byte " << pos;
    sums.push_back(sum);
  }
  std::sort(sums.begin(), sums.end());
  EXPECT_EQ(std::adjacent_find(sums.begin(), sums.end()), sums.end())
      << "two single-byte flips collided";

  // Every single-bit flip of a 4 KiB buffer. A CRC is linear, so the sum
  // moves by the flip's own syndrome; distinct syndromes also mean no two
  // positions collide.
  std::string page(4096, '\0');
  Rng rng(0xb175);
  for (char& byte : page) byte = static_cast<char>(rng.NextU64());
  const uint64_t page_sum = Crc64Nvme(page);
  std::vector<uint64_t> page_sums;
  page_sums.reserve(page.size() * 8);
  for (size_t bit = 0; bit < page.size() * 8; ++bit) {
    page[bit / 8] = static_cast<char>(page[bit / 8] ^ (1 << (bit % 8)));
    const uint64_t sum = Crc64Nvme(page);
    page[bit / 8] = static_cast<char>(page[bit / 8] ^ (1 << (bit % 8)));
    ASSERT_NE(sum, page_sum) << "flip of bit " << bit;
    page_sums.push_back(sum);
  }
  std::sort(page_sums.begin(), page_sums.end());
  EXPECT_EQ(std::adjacent_find(page_sums.begin(), page_sums.end()),
            page_sums.end())
      << "two single-bit flips collided";

  // Random bursts of 1..64 bits (first and last bit set) at unaligned bit
  // offsets: a degree-64 CRC detects every one.
  for (int trial = 0; trial < 20000; ++trial) {
    const auto length = static_cast<size_t>(rng.NextInRange(1, 64));
    const auto start = static_cast<size_t>(rng.NextInRange(
        0, static_cast<int64_t>(page.size() * 8 - length)));
    uint64_t pattern = rng.NextU64() | 1 | (uint64_t{1} << (length - 1));
    if (length < 64) pattern &= (uint64_t{1} << length) - 1;
    std::string burst = page;
    for (size_t b = 0; b < length; ++b) {
      if (((pattern >> b) & 1) == 0) continue;
      const size_t bit = start + b;
      burst[bit / 8] = static_cast<char>(burst[bit / 8] ^ (1 << (bit % 8)));
    }
    ASSERT_NE(Crc64Nvme(burst), page_sum)
        << "burst of " << length << " bits at bit " << start;
  }
}

TEST(PackCodecTest, CodecChoiceNamesParse) {
  PackCodecChoice choice = PackCodecChoice::kForceRaw;
  EXPECT_TRUE(ParsePackCodecChoice("auto", &choice));
  EXPECT_EQ(choice, PackCodecChoice::kAutoCodec);
  EXPECT_TRUE(ParsePackCodecChoice("raw", &choice));
  EXPECT_EQ(choice, PackCodecChoice::kForceRaw);
  EXPECT_TRUE(ParsePackCodecChoice("delta", &choice));
  EXPECT_EQ(choice, PackCodecChoice::kForceDelta);
  EXPECT_TRUE(ParsePackCodecChoice("dict", &choice));
  EXPECT_EQ(choice, PackCodecChoice::kForceDict);
  EXPECT_FALSE(ParsePackCodecChoice("zstd", &choice));
  EXPECT_FALSE(ParsePackCodecChoice("", &choice));
}

}  // namespace
}  // namespace ndv
