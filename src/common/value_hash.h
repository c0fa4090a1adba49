#ifndef NDV_COMMON_VALUE_HASH_H_
#define NDV_COMMON_VALUE_HASH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/random.h"

namespace ndv {

// The library's value-hash primitives and the one batch loop per value
// type built on them. Every path that hashes a column value — heap
// columns, mmap columns, blocked pack columns — goes through these, so
// equal values hash equally everywhere and estimates are storage- and
// host-independent. They live in common/ (not table/) so the column
// hierarchy and the storage layer share them without a dependency cycle.
// value_hash_test pins their outputs to golden constants: every published
// estimate depends on them.

// FNV-1a 64-bit hash of a byte string, finalized with Hash64 mixing.
inline uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return Hash64(h);
}

// Hash of one double under the library's equality classes: -0.0
// canonicalized to +0.0, every NaN payload collapsed into one class.
inline uint64_t HashDoubleValue(double v) {
  if (v == 0.0) v = 0.0;  // Canonicalize -0.0.
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return Hash64(bits);
}

// out[i] = Hash64(uint64(values[i])).
inline void HashInt64Span(const int64_t* values, size_t count,
                          uint64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = Hash64(static_cast<uint64_t>(values[i]));
  }
}

// out[i] = HashDoubleValue(values[i]).
inline void HashDoubleSpan(const double* values, size_t count,
                           uint64_t* out) {
  for (size_t i = 0; i < count; ++i) out[i] = HashDoubleValue(values[i]);
}

// Gather: out[i] = Hash64(uint64(base[rows[i]])). Rows must be in bounds
// for the caller's array; the loop does not range-check.
inline void HashInt64Gather(const int64_t* base, const int64_t* rows,
                            size_t count, uint64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = Hash64(static_cast<uint64_t>(base[rows[i]]));
  }
}

// Gather: out[i] = HashDoubleValue(base[rows[i]]).
inline void HashDoubleGather(const double* base, const int64_t* rows,
                             size_t count, uint64_t* out) {
  for (size_t i = 0; i < count; ++i) out[i] = HashDoubleValue(base[rows[i]]);
}

// Dictionary-code path: out[i] = lut[codes[i]], where lut holds each
// dictionary entry's HashBytes. Codes must be in bounds (the pack reader
// validates them before any hashing).
inline void HashLookupCodes32(const int32_t* codes, const uint64_t* lut,
                              size_t count, uint64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = lut[static_cast<uint32_t>(codes[i])];
  }
}

}  // namespace ndv

#endif  // NDV_COMMON_VALUE_HASH_H_
