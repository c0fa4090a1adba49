// The PCLMULQDQ CRC-64/NVME fold and the delta-gather chunk sums. This
// translation unit is the only one compiled with -mavx2 -mpclmul; it is
// reached exclusively through the runtime dispatch in simd_hash.cc after a
// CPUID check, so the rest of the binary keeps its baseline ISA.
//
// Bit-identity with the scalar kernels is the contract (DESIGN.md §15):
//   - The delta-gather chunk sums (widths 1 and 2) are wrapping integer
//     sums, exact in any order; the lane masks drop the deltas past the
//     requested count.
//   - The CRC fold only replaces 128 message bits by a congruent 128 bits
//     further on (mod P); the table finishes the last 16 folded bytes and
//     the tail, so the register it returns is the table's.

#if defined(__x86_64__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "common/simd_hash_internal.h"

namespace ndv {
namespace simd_internal {

namespace {

// Fold constants for moving a 128-bit chunk D bits further on. A loaded
// chunk holds message bit j at register bit j, i.e. the coefficient of
// x^(127 - j): its low qword is the high half H, its high qword the low
// half L, and X * x^D = H * x^(D+64) + L * x^D. A reflected carry-less
// multiply of two qwords yields their product times x, hence the -1.
struct FoldConstants {
  uint64_t high_half;  // x^(D+63) mod P
  uint64_t low_half;   // x^(D-1) mod P
};

constexpr FoldConstants FoldBy(int distance_bits) {
  return {Crc64NvmeXPowModP(distance_bits + 63),
          Crc64NvmeXPowModP(distance_bits - 1)};
}

constexpr FoldConstants kFold512 = FoldBy(512);
constexpr FoldConstants kFold128 = FoldBy(128);

inline __m128i FoldRegister(FoldConstants k) {
  return _mm_set_epi64x(static_cast<long long>(k.low_half),
                        static_cast<long long>(k.high_half));
}

// A chunk moved onto the chunk `k`'s distance ahead, before the XOR.
inline __m128i Fold(__m128i chunk, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(chunk, k, 0x00),
                       _mm_clmulepi64_si128(chunk, k, 0x11));
}

inline __m128i Load128(const uint8_t* bytes) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes));
}

// The low `bytes` (<= 16) bytes set: 16 bytes of a 32-byte ramp.
inline __m128i LowBytesMask(size_t bytes) {
  alignas(16) static constexpr uint8_t kRamp[32] = {
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  return Load128(kRamp + 16 - bytes);
}

// Delta chunk sums for widths 1 and 2 (the widths the writer picks for
// sorted keys and clustered ids), where the generic loop spends its time
// sign-extending each delta to 64 bits. Equal to GenericChunkSum.
//
// psadbw adds eight unsigned bytes into each 64-bit lane. Flipping the top
// bit biases each signed delta by +128 into an unsigned byte; the bias
// comes off after the sum.
struct SadChunkSum {
  static uint64_t Of(const uint8_t* chunk, size_t count) {
    const __m128i biased = _mm_and_si128(
        _mm_xor_si128(Load128(chunk), _mm_set1_epi8(static_cast<char>(0x80))),
        LowBytesMask(count));
    const __m128i lanes = _mm_sad_epu8(biased, _mm_setzero_si128());
    const __m128i sum =
        _mm_add_epi64(lanes, _mm_unpackhi_epi64(lanes, lanes));
    return static_cast<uint64_t>(_mm_cvtsi128_si64(sum)) - 128 * count;
  }
};

// pmaddwd adds pairs of int16 into four int32 lanes; eight int16 sum to at
// most 2^18 in magnitude, so the int32 reduction cannot overflow.
struct MaddChunkSum {
  static uint64_t Of(const uint8_t* chunk, size_t count) {
    const __m128i words =
        _mm_and_si128(Load128(chunk), LowBytesMask(2 * count));
    __m128i sum = _mm_madd_epi16(words, _mm_set1_epi16(1));
    sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0x4e));
    sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0xb1));
    return static_cast<uint64_t>(
        static_cast<int64_t>(_mm_cvtsi128_si32(sum)));
  }
};

}  // namespace

uint64_t Crc64NvmeUpdateAvx2(uint64_t crc, const uint8_t* bytes,
                             size_t count) {
  if (count < 64) return Crc64NvmeUpdateTable(crc, bytes, count);
  // Four independent 128-bit accumulators, each folded 512 bits ahead per
  // step, so four multiply chains overlap. The register enters the fold as
  // an XOR into the first 8 message bytes, which is what the table does.
  const __m128i k512 = FoldRegister(kFold512);
  const __m128i k128 = FoldRegister(kFold128);
  __m128i x0 = _mm_xor_si128(Load128(bytes),
                             _mm_cvtsi64_si128(static_cast<long long>(crc)));
  __m128i x1 = Load128(bytes + 16);
  __m128i x2 = Load128(bytes + 32);
  __m128i x3 = Load128(bytes + 48);
  bytes += 64;
  count -= 64;
  for (; count >= 64; bytes += 64, count -= 64) {
    x0 = _mm_xor_si128(Fold(x0, k512), Load128(bytes));
    x1 = _mm_xor_si128(Fold(x1, k512), Load128(bytes + 16));
    x2 = _mm_xor_si128(Fold(x2, k512), Load128(bytes + 32));
    x3 = _mm_xor_si128(Fold(x3, k512), Load128(bytes + 48));
  }
  __m128i x = _mm_xor_si128(Fold(x0, k128), x1);
  x = _mm_xor_si128(Fold(x, k128), x2);
  x = _mm_xor_si128(Fold(x, k128), x3);
  for (; count >= 16; bytes += 16, count -= 16) {
    x = _mm_xor_si128(Fold(x, k128), Load128(bytes));
  }
  // x is congruent to everything consumed so far; as 16 message bytes
  // under a zero register it leaves the register the whole prefix would.
  alignas(16) uint8_t folded[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(folded), x);
  return Crc64NvmeUpdateTable(Crc64NvmeUpdateTable(0, folded, 16), bytes,
                              count);
}

void GatherDeltaValuesAvx2(int width, uint64_t base, const uint8_t* deltas,
                           size_t count, std::span<const uint32_t> offsets,
                           int64_t* out) {
  switch (width) {
    case 1:
      return GatherDeltasChunked<int8_t, SadChunkSum>(base, deltas, count,
                                                      offsets, out);
    case 2:
      return GatherDeltasChunked<int16_t, MaddChunkSum>(base, deltas, count,
                                                        offsets, out);
    default:
      return GatherDeltaValuesGeneric(width, base, deltas, count, offsets,
                                      out);
  }
}

}  // namespace simd_internal
}  // namespace ndv

#endif  // defined(__x86_64__)
