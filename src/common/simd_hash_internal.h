#ifndef NDV_COMMON_SIMD_HASH_INTERNAL_H_
#define NDV_COMMON_SIMD_HASH_INTERNAL_H_

// Kernels shared between simd_hash.cc (scalar reference + dispatch) and
// simd_hash_avx2.cc (the -mavx2 -mpclmul translation unit). Not a public
// interface: everything outside common/ goes through simd_hash.h.

#include <cstddef>
#include <cstdint>

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

// The slicing-by-8 table path: the scalar/NEON kernel and the tail of the
// AVX2 one.
uint64_t Crc64NvmeUpdateTable(uint64_t crc, const uint8_t* bytes,
                              size_t count);

#if defined(__x86_64__)
void HashInt64SpanAvx2(const int64_t* values, size_t count, uint64_t* out);
void HashDoubleSpanAvx2(const double* values, size_t count, uint64_t* out);
void HashInt64GatherAvx2(const int64_t* base, const int64_t* rows,
                         size_t count, uint64_t* out);
void HashDoubleGatherAvx2(const double* base, const int64_t* rows,
                          size_t count, uint64_t* out);
void HashLookupCodes32Avx2(const int32_t* codes, const uint64_t* lut,
                           size_t count, uint64_t* out);
uint64_t Crc64NvmeUpdateAvx2(uint64_t crc, const uint8_t* bytes,
                             size_t count);
#endif

}  // namespace simd_internal
}  // namespace ndv

#endif  // NDV_COMMON_SIMD_HASH_INTERNAL_H_
