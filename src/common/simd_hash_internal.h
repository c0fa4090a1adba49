#ifndef NDV_COMMON_SIMD_HASH_INTERNAL_H_
#define NDV_COMMON_SIMD_HASH_INTERNAL_H_

// Kernels shared between simd_hash.cc (scalar reference + dispatch) and
// simd_hash_avx2.cc (the -mavx2 -mpclmul translation unit). Not a public
// interface: everything outside common/ goes through simd_hash.h.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace ndv {
namespace simd_internal {

// CRC-64/NVME's polynomial 0xAD93D23594C93659, bit-reflected: bit i holds
// the coefficient of x^(63 - i), the order the register consumes bits in.
inline constexpr uint64_t kCrc64NvmePolyReflected = 0x9a6c9329ac4bc9b5ULL;

// x^n mod P in the reflected representation.
constexpr uint64_t Crc64NvmeXPowModP(int n) {
  uint64_t r = uint64_t{1} << 63;  // x^0
  for (int i = 0; i < n; ++i) {
    r = (r & 1) != 0 ? (r >> 1) ^ kCrc64NvmePolyReflected : r >> 1;
  }
  return r;
}

// The slicing-by-8 table path: the scalar kernel and the tail of the AVX2
// one.
uint64_t Crc64NvmeUpdateTable(uint64_t crc, const uint8_t* bytes,
                              size_t count);

// Per-thread scratch of at least `size` running values for the delta
// gather; it grows to the largest block a thread gathers from (2 KiB for a
// 4096-row width-1 block) and is reused.
uint64_t* DeltaChunkScratch(size_t size);

// The generic delta gather (every width, every level); the AVX2 kernel
// calls it for widths 4 and 8.
void GatherDeltaValuesGeneric(int width, uint64_t base,
                              const uint8_t* deltas, size_t count,
                              std::span<const uint32_t> offsets,
                              int64_t* out);

// The chunked delta gather both translation units instantiate, for signed
// deltas of type T in 16-byte chunks of K = 16 / sizeof(T). Sum::Of(chunk,
// n) is the wrapping sum of the first n <= K deltas of a chunk all 16
// bytes of which are readable; `Sum` must be a type local to the calling
// translation unit, so each instantiation keeps that unit's ISA. Both
// loops run counts fixed before they start: carrying the value from one
// offset to the next instead mispredicts at the end of every gap.
template <typename T, typename Sum>
void GatherDeltasChunked(uint64_t base, const uint8_t* deltas, size_t count,
                         std::span<const uint32_t> offsets, int64_t* out) {
  constexpr size_t K = 16 / sizeof(T);
  uint32_t largest = 0;
  for (const uint32_t offset : offsets) {
    largest = offset > largest ? offset : largest;
  }
  // Chunk k < largest / K ends at or before delta `largest` <= count.
  const size_t chunks = largest / K;
  uint64_t* values = DeltaChunkScratch(chunks + 1);
  uint64_t value = base;
  values[0] = value;
  for (size_t k = 0; k < chunks; ++k) {
    value += Sum::Of(deltas + 16 * k, K);
    values[k + 1] = value;
  }
  for (size_t j = 0; j < offsets.size(); ++j) {
    const size_t k = offsets[j] / K;
    const size_t rest = offsets[j] % K;
    uint64_t head = 0;
    if (K * (k + 1) <= count) {
      head = Sum::Of(deltas + 16 * k, rest);
    } else {
      // The block's final chunk is short; sum it delta by delta.
      for (size_t i = K * k; i < K * k + rest; ++i) {
        T delta;
        std::memcpy(&delta, deltas + i * sizeof(T), sizeof(T));
        head += static_cast<uint64_t>(static_cast<int64_t>(delta));
      }
    }
    out[j] = static_cast<int64_t>(values[k] + head);
  }
}

#if defined(__x86_64__)
void GatherDeltaValuesAvx2(int width, uint64_t base, const uint8_t* deltas,
                           size_t count, std::span<const uint32_t> offsets,
                           int64_t* out);
uint64_t Crc64NvmeUpdateAvx2(uint64_t crc, const uint8_t* bytes,
                             size_t count);
#endif

}  // namespace simd_internal
}  // namespace ndv

#endif  // NDV_COMMON_SIMD_HASH_INTERNAL_H_
