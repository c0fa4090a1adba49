#ifndef NDV_COMMON_BYTE_CODEC_H_
#define NDV_COMMON_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

// The one byte codec behind every binary format in the repo: serve frames
// (DESIGN.md §13), WAL records and snapshots (§14), and the ndvpack header
// and directory (§15). Integers are fixed-width little-endian, doubles are
// their IEEE-754 bit pattern as a u64, strings are a u32 length followed by
// the raw bytes.

namespace ndv {

static_assert(std::endian::native == std::endian::little,
              "the byte codec writes and reads host integers in place");

inline void PutU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

inline void PutU16(std::string* out, uint16_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline void PutU32(std::string* out, uint32_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline void PutU64(std::string* out, uint64_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline void PutI64(std::string* out, int64_t value) {
  PutU64(out, static_cast<uint64_t>(value));
}

inline void PutF64(std::string* out, double value) {
  PutU64(out, std::bit_cast<uint64_t>(value));
}

inline void PutBool(std::string* out, bool value) { PutU8(out, value ? 1 : 0); }

inline void PutString(std::string* out, std::string_view value) {
  PutU32(out, static_cast<uint32_t>(value.size()));
  out->append(value.data(), value.size());
}

// Bounds-checked cursor over untrusted bytes. Every Take* consumes its
// field or returns a typed error, so a decoder built from it is total over
// arbitrary input: truncation, an over-cap string and trailing bytes are
// DataLoss, a bool byte other than 0 or 1 is InvalidArgument. After an
// error the cursor position is unspecified; stop decoding.
class ByteReader {
 public:
  // `max_string` caps the length of TakeString/TakeView fields; a longer
  // claim fails as truncation without allocating.
  ByteReader(std::string_view data, size_t max_string)
      : data_(data), max_string_(max_string) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status TakeU8(uint8_t* out) { return TakeRaw(out, sizeof(*out), "u8"); }
  Status TakeU16(uint16_t* out) { return TakeRaw(out, sizeof(*out), "u16"); }
  Status TakeU32(uint32_t* out) { return TakeRaw(out, sizeof(*out), "u32"); }
  Status TakeU64(uint64_t* out) { return TakeRaw(out, sizeof(*out), "u64"); }

  Status TakeI64(int64_t* out) {
    uint64_t bits = 0;
    NDV_RETURN_IF_ERROR(TakeU64(&bits));
    *out = static_cast<int64_t>(bits);
    return Status::Ok();
  }

  Status TakeF64(double* out) {
    uint64_t bits = 0;
    NDV_RETURN_IF_ERROR(TakeU64(&bits));
    *out = std::bit_cast<double>(bits);
    return Status::Ok();
  }

  Status TakeBool(bool* out) {
    uint8_t byte = 0;
    NDV_RETURN_IF_ERROR(TakeU8(&byte));
    if (byte > 1) {
      return InvalidArgumentError("bool byte must be 0 or 1, got %u",
                                  static_cast<unsigned>(byte));
    }
    *out = byte == 1;
    return Status::Ok();
  }

  // The next `length` bytes, aliased in place (valid while the input is).
  Status TakeView(size_t length, std::string_view* out) {
    if (length > max_string_ || length > remaining()) {
      return Truncated("string");
    }
    *out = data_.substr(pos_, length);
    pos_ += length;
    return Status::Ok();
  }

  // A u32-length-prefixed string.
  Status TakeString(std::string* out) {
    uint32_t length = 0;
    std::string_view view;
    NDV_RETURN_IF_ERROR(TakeU32(&length));
    NDV_RETURN_IF_ERROR(TakeView(length, &view));
    out->assign(view);
    return Status::Ok();
  }

  // A body must be consumed exactly: trailing bytes mean its length prefix
  // and its contents disagree, which is corruption, not versioning slack.
  Status ExpectEnd() const {
    if (remaining() != 0) {
      return DataLossError("%zu trailing bytes after the body", remaining());
    }
    return Status::Ok();
  }

 private:
  Status TakeRaw(void* out, size_t length, const char* what) {
    if (length > remaining()) return Truncated(what);
    std::memcpy(out, data_.data() + pos_, length);
    pos_ += length;
    return Status::Ok();
  }

  Status Truncated(const char* what) const {
    return DataLossError("truncated input: %s at offset %zu of %zu bytes",
                         what, pos_, data_.size());
  }

  std::string_view data_;
  size_t pos_ = 0;
  size_t max_string_;
};

}  // namespace ndv

#endif  // NDV_COMMON_BYTE_CODEC_H_
