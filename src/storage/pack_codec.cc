#include "storage/pack_codec.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/simd_hash.h"

namespace ndv {

namespace {

// Smallest signed two's-complement byte width in {1, 2, 4} that represents
// `delta` exactly, or 8 when none does.
uint8_t DeltaWidthFor(uint64_t delta) {
  const auto d = static_cast<int64_t>(delta);
  if (d >= -128 && d <= 127) return 1;
  if (d >= -32768 && d <= 32767) return 2;
  if (d >= -2147483648LL && d <= 2147483647LL) return 4;
  return 8;
}

void AppendLittleEndian(std::string* out, uint64_t value, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint64_t ReadLittleEndian(const uint8_t* bytes, size_t count) {
  uint64_t value = 0;
  for (size_t i = 0; i < count; ++i) {
    value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  return value;
}

// Largest of `count` unsigned little-endian codes of type T.
template <typename T>
T MaxCode(const uint8_t* payload, size_t count) {
  T max = 0;
  for (size_t i = 0; i < count; ++i) {
    T code;
    std::memcpy(&code, payload + i * sizeof(T), sizeof(T));
    max = code > max ? code : max;
  }
  return max;
}

// True when every code of a validated-shape code block is < dict_count
// (and, for raw int32 codes, >= 0). One reduction per width, no branch per
// code.
bool CodesBlockInRange(PackBlockCodec codec, size_t width,
                       const uint8_t* payload, size_t rows,
                       uint64_t dict_count) {
  if (codec == PackBlockCodec::kRaw) {
    int32_t min = 0;
    int32_t max = 0;
    for (size_t i = 0; i < rows; ++i) {
      int32_t code;
      std::memcpy(&code, payload + i * 4, 4);
      min = code < min ? code : min;
      max = code > max ? code : max;
    }
    return min >= 0 && static_cast<uint64_t>(max) < dict_count;
  }
  switch (width) {
    case 1:
      return MaxCode<uint8_t>(payload, rows) < dict_count;
    case 2:
      return MaxCode<uint16_t>(payload, rows) < dict_count;
    default:
      return MaxCode<uint32_t>(payload, rows) < dict_count;
  }
}

}  // namespace

bool ParsePackCodecChoice(std::string_view text, PackCodecChoice* out) {
  if (text == "auto") {
    *out = PackCodecChoice::kAutoCodec;
    return true;
  }
  if (text == "raw") {
    *out = PackCodecChoice::kForceRaw;
    return true;
  }
  if (text == "delta") {
    *out = PackCodecChoice::kForceDelta;
    return true;
  }
  if (text == "dict") {
    *out = PackCodecChoice::kForceDict;
    return true;
  }
  return false;
}

const char* PackCodecChoiceName(PackCodecChoice choice) {
  switch (choice) {
    case PackCodecChoice::kAutoCodec:
      return "auto";
    case PackCodecChoice::kForceRaw:
      return "raw";
    case PackCodecChoice::kForceDelta:
      return "delta";
    case PackCodecChoice::kForceDict:
      return "dict";
  }
  return "unknown";
}

const char* PackBlockCodecName(PackBlockCodec codec) {
  switch (codec) {
    case PackBlockCodec::kRaw:
      return "raw";
    case PackBlockCodec::kDelta:
      return "delta";
    case PackBlockCodec::kDictCodes:
      return "dict";
  }
  return "unknown";
}

// --- Checksum. ------------------------------------------------------------

void PackChecksummer::Append(std::string_view bytes) {
  crc_ = Crc64NvmeUpdate(crc_, reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
}

// --- Encoding. ------------------------------------------------------------

PackBlockEncoding EncodeInt64Block(std::span<const int64_t> values,
                                   PackCodecChoice choice, std::string* out) {
  NDV_CHECK_GE(values.size(), 1u);
  if (choice != PackCodecChoice::kForceRaw) {
    // Width = widest delta in the block (wrapping arithmetic).
    uint8_t width = 0;
    for (size_t i = 1; i < values.size(); ++i) {
      const uint64_t delta = static_cast<uint64_t>(values[i]) -
                             static_cast<uint64_t>(values[i - 1]);
      if (delta != 0) {
        const uint8_t w = DeltaWidthFor(delta);
        if (w > width) width = w;
      }
    }
    const uint64_t delta_bytes =
        8 + static_cast<uint64_t>(width) * (values.size() - 1);
    const uint64_t raw_bytes = 8 * values.size();
    if (choice == PackCodecChoice::kForceDelta || delta_bytes < raw_bytes) {
      AppendLittleEndian(out, static_cast<uint64_t>(values[0]), 8);
      if (width > 0) {
        for (size_t i = 1; i < values.size(); ++i) {
          const uint64_t delta = static_cast<uint64_t>(values[i]) -
                                 static_cast<uint64_t>(values[i - 1]);
          AppendLittleEndian(out, delta, width);
        }
      }
      return {PackBlockCodec::kDelta, width};
    }
  }
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(int64_t));
  return {PackBlockCodec::kRaw, 0};
}

PackBlockEncoding EncodeDoubleBlock(std::span<const double> values,
                                    std::string* out) {
  NDV_CHECK_GE(values.size(), 1u);
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(double));
  return {PackBlockCodec::kRaw, 0};
}

PackBlockEncoding EncodeCodesBlock(std::span<const int32_t> codes,
                                   PackCodecChoice choice, std::string* out) {
  NDV_CHECK_GE(codes.size(), 1u);
  if (choice != PackCodecChoice::kForceRaw) {
    int32_t max_code = 0;
    for (const int32_t code : codes) {
      NDV_DCHECK(code >= 0);
      if (code > max_code) max_code = code;
    }
    const uint8_t width = max_code <= 0xff ? 1 : max_code <= 0xffff ? 2 : 4;
    if (choice == PackCodecChoice::kForceDict || width < 4) {
      for (const int32_t code : codes) {
        AppendLittleEndian(out, static_cast<uint64_t>(code), width);
      }
      return {PackBlockCodec::kDictCodes, width};
    }
  }
  out->append(reinterpret_cast<const char*>(codes.data()),
              codes.size() * sizeof(int32_t));
  return {PackBlockCodec::kRaw, 0};
}

// --- Validation. ----------------------------------------------------------

Status ValidateValueBlock(PackBlockCodec codec, uint8_t param, bool is_double,
                          int64_t rows, uint64_t payload_length) {
  if (rows < 1) return DataLossError("block with %lld rows",
                                     static_cast<long long>(rows));
  switch (codec) {
    case PackBlockCodec::kRaw: {
      if (param != 0) {
        return DataLossError("raw block with nonzero param %u", param);
      }
      const uint64_t want = static_cast<uint64_t>(rows) * 8;
      if (payload_length != want) {
        return DataLossError(
            "raw block length %llu != %llu for %lld rows",
            static_cast<unsigned long long>(payload_length),
            static_cast<unsigned long long>(want),
            static_cast<long long>(rows));
      }
      return Status::Ok();
    }
    case PackBlockCodec::kDelta: {
      if (is_double) return DataLossError("delta block in a double column");
      if (param != 0 && param != 1 && param != 2 && param != 4 && param != 8) {
        return DataLossError("delta block with width %u", param);
      }
      const uint64_t want =
          8 + static_cast<uint64_t>(param) * (static_cast<uint64_t>(rows) - 1);
      if (payload_length != want) {
        return DataLossError(
            "delta block length %llu != %llu (width %u, %lld rows)",
            static_cast<unsigned long long>(payload_length),
            static_cast<unsigned long long>(want), param,
            static_cast<long long>(rows));
      }
      return Status::Ok();
    }
    case PackBlockCodec::kDictCodes:
      return DataLossError("dict block in a value column");
  }
  return DataLossError("unknown block codec %u", static_cast<unsigned>(codec));
}

Status ValidateCodesBlock(PackBlockCodec codec, uint8_t param, int64_t rows,
                          std::span<const uint8_t> payload,
                          uint64_t dict_count) {
  if (rows < 1) return DataLossError("block with %lld rows",
                                     static_cast<long long>(rows));
  size_t width;
  switch (codec) {
    case PackBlockCodec::kRaw:
      if (param != 0) {
        return DataLossError("raw code block with nonzero param %u", param);
      }
      width = 4;
      break;
    case PackBlockCodec::kDictCodes:
      if (param != 1 && param != 2 && param != 4) {
        return DataLossError("dict code block with width %u", param);
      }
      width = param;
      break;
    case PackBlockCodec::kDelta:
      return DataLossError("delta block in a string column");
    default:
      return DataLossError("unknown block codec %u",
                           static_cast<unsigned>(codec));
  }
  const uint64_t want = static_cast<uint64_t>(rows) * width;
  if (payload.size() != want) {
    return DataLossError("code block length %zu != %llu (width %zu, %lld "
                         "rows)",
                         payload.size(),
                         static_cast<unsigned long long>(want), width,
                         static_cast<long long>(rows));
  }
  // Every code must index the dictionary. One branch-free reduction per
  // block decides; only a failing block pays for the per-row walk that
  // names the first bad row.
  if (CodesBlockInRange(codec, width, payload.data(),
                        static_cast<size_t>(rows), dict_count)) {
    return Status::Ok();
  }
  for (int64_t i = 0; i < rows; ++i) {
    uint64_t code;
    if (codec == PackBlockCodec::kRaw) {
      int32_t raw;
      std::memcpy(&raw, payload.data() + static_cast<size_t>(i) * 4, 4);
      if (raw < 0) {
        return DataLossError("negative code %ld at block row %lld",
                             static_cast<long>(raw),
                             static_cast<long long>(i));
      }
      code = static_cast<uint64_t>(raw);
    } else {
      code = ReadLittleEndian(payload.data() + static_cast<size_t>(i) * width,
                              width);
    }
    if (code >= dict_count) {
      return DataLossError(
          "code %llu at block row %lld outside dictionary of %llu",
          static_cast<unsigned long long>(code), static_cast<long long>(i),
          static_cast<unsigned long long>(dict_count));
    }
  }
  NDV_CHECK_MSG(false, "code block failed its range check at no row");
  return Status::Ok();
}

// --- Decode. --------------------------------------------------------------

namespace {

// One loop per width, so every load is a fixed-size memcpy and every sign
// extension a cast: signed T is the delta's two's-complement width.
template <typename T>
void PrefixSumDeltas(uint64_t value, int64_t rows, const uint8_t* deltas,
                     int64_t* out) {
  for (int64_t i = 1; i < rows; ++i) {
    T delta;
    std::memcpy(&delta, deltas + static_cast<size_t>(i - 1) * sizeof(T),
                sizeof(T));
    value += static_cast<uint64_t>(static_cast<int64_t>(delta));
    out[i] = static_cast<int64_t>(value);
  }
}

// Unsigned T is the code width.
template <typename T>
void GatherCodes(const uint8_t* payload, std::span<const uint32_t> offsets,
                 int32_t* out) {
  for (size_t j = 0; j < offsets.size(); ++j) {
    T code;
    std::memcpy(&code, payload + size_t{offsets[j]} * sizeof(T), sizeof(T));
    out[j] = static_cast<int32_t>(code);
  }
}

// Unsigned T is the code width.
template <typename T>
void WidenCodes(int64_t rows, const uint8_t* payload, int32_t* out) {
  for (int64_t i = 0; i < rows; ++i) {
    T code;
    std::memcpy(&code, payload + static_cast<size_t>(i) * sizeof(T),
                sizeof(T));
    out[i] = static_cast<int32_t>(code);
  }
}

}  // namespace

void DecodeInt64Block(PackBlockCodec codec, uint8_t param, int64_t rows,
                      const uint8_t* payload, int64_t* out) {
  NDV_DCHECK(rows >= 1);
  if (codec == PackBlockCodec::kRaw) {
    std::memcpy(out, payload, static_cast<size_t>(rows) * sizeof(int64_t));
    return;
  }
  NDV_DCHECK(codec == PackBlockCodec::kDelta);
  const uint64_t base = ReadLittleEndian(payload, 8);
  out[0] = static_cast<int64_t>(base);
  const uint8_t* deltas = payload + 8;
  switch (param) {
    case 0:  // Zero-order hold: the whole block equals the base.
      std::fill(out + 1, out + rows, out[0]);
      return;
    case 1:
      return PrefixSumDeltas<int8_t>(base, rows, deltas, out);
    case 2:
      return PrefixSumDeltas<int16_t>(base, rows, deltas, out);
    case 4:
      return PrefixSumDeltas<int32_t>(base, rows, deltas, out);
    default:
      NDV_DCHECK(param == 8);
      return PrefixSumDeltas<int64_t>(base, rows, deltas, out);
  }
}

void DecodeCodesBlock(PackBlockCodec codec, uint8_t param, int64_t rows,
                      const uint8_t* payload, int32_t* out) {
  NDV_DCHECK(rows >= 1);
  if (codec == PackBlockCodec::kRaw) {
    std::memcpy(out, payload, static_cast<size_t>(rows) * sizeof(int32_t));
    return;
  }
  NDV_DCHECK(codec == PackBlockCodec::kDictCodes);
  switch (param) {
    case 1:
      return WidenCodes<uint8_t>(rows, payload, out);
    case 2:
      return WidenCodes<uint16_t>(rows, payload, out);
    default:
      NDV_DCHECK(param == 4);
      return WidenCodes<uint32_t>(rows, payload, out);
  }
}

void GatherInt64Block(PackBlockCodec codec, uint8_t param, int64_t rows,
                      const uint8_t* payload,
                      std::span<const uint32_t> offsets, int64_t* out) {
  NDV_DCHECK(rows >= 1);
  if (offsets.empty()) return;
  NDV_DCHECK_LT(int64_t{*std::max_element(offsets.begin(), offsets.end())},
                rows);
  if (codec == PackBlockCodec::kRaw) {
    for (size_t j = 0; j < offsets.size(); ++j) {
      std::memcpy(&out[j], payload + size_t{offsets[j]} * sizeof(int64_t),
                  sizeof(int64_t));
    }
    return;
  }
  NDV_DCHECK(codec == PackBlockCodec::kDelta);
  const uint64_t base = ReadLittleEndian(payload, 8);
  if (param == 0) {  // Zero-order hold: every row equals the base.
    std::fill(out, out + offsets.size(), static_cast<int64_t>(base));
    return;
  }
  GatherDeltaValues(param, base, payload + 8, static_cast<size_t>(rows - 1),
                    offsets, out);
}

void GatherCodesBlock(PackBlockCodec codec, uint8_t param,
                      const uint8_t* payload,
                      std::span<const uint32_t> offsets, int32_t* out) {
  if (codec == PackBlockCodec::kRaw) {
    return GatherCodes<uint32_t>(payload, offsets, out);
  }
  NDV_DCHECK(codec == PackBlockCodec::kDictCodes);
  switch (param) {
    case 1:
      return GatherCodes<uint8_t>(payload, offsets, out);
    case 2:
      return GatherCodes<uint16_t>(payload, offsets, out);
    default:
      NDV_DCHECK(param == 4);
      return GatherCodes<uint32_t>(payload, offsets, out);
  }
}

}  // namespace ndv
