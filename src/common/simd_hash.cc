#include "common/simd_hash.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/simd_hash_internal.h"
#include "table/column.h"

#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define NDV_HAVE_NEON 1
#endif

namespace ndv {

// AVX2 kernels live in simd_hash_avx2.cc, compiled with -mavx2 -mpclmul in
// its own translation unit so the rest of the binary stays baseline-ISA.
// They are only ever called after a runtime CPUID check.
#if defined(__x86_64__)
#define NDV_HAVE_AVX2_TU 1
#endif

namespace {

// --- Scalar reference kernels. --------------------------------------------
// These define the bit pattern every other level must reproduce; they call
// the exact same Hash64 / HashDoubleValue the per-row HashAt paths use.

void HashInt64SpanScalar(const int64_t* values, size_t count, uint64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = Hash64(static_cast<uint64_t>(values[i]));
  }
}

void HashDoubleSpanScalar(const double* values, size_t count, uint64_t* out) {
  for (size_t i = 0; i < count; ++i) out[i] = HashDoubleValue(values[i]);
}

void HashInt64GatherScalar(const int64_t* base, const int64_t* rows,
                           size_t count, uint64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = Hash64(static_cast<uint64_t>(base[rows[i]]));
  }
}

void HashDoubleGatherScalar(const double* base, const int64_t* rows,
                            size_t count, uint64_t* out) {
  for (size_t i = 0; i < count; ++i) out[i] = HashDoubleValue(base[rows[i]]);
}

void HashLookupCodes32Scalar(const int32_t* codes, const uint64_t* lut,
                             size_t count, uint64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = lut[static_cast<uint32_t>(codes[i])];
  }
}

// --- CRC-64/NVME slicing-by-8 table. -------------------------------------
// kCrcTables[0][b] advances the register over one byte b; kCrcTables[k][b]
// over b followed by k zero bytes, so eight lookups advance it a word.

using CrcTables = std::array<std::array<uint64_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint64_t b = 0; b < 256; ++b) {
    uint64_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0
                ? (crc >> 1) ^ simd_internal::kCrc64NvmePolyReflected
                : crc >> 1;
    }
    tables[0][b] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (size_t b = 0; b < 256; ++b) {
      const uint64_t prev = tables[k - 1][b];
      tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

// --- NEON: vectorized double canonicalization, scalar mixing. -------------
// aarch64 NEON has no 64x64 vector multiply, so the Hash64 mix stays
// scalar; the win is the branch-free canonicalization of -0.0 / NaN.

#if defined(NDV_HAVE_NEON)
void HashDoubleSpanNeon(const double* values, size_t count, uint64_t* out) {
  const uint64x2_t abs_mask = vdupq_n_u64(0x7fffffffffffffffULL);
  const uint64x2_t exp_mask = vdupq_n_u64(0x7ff0000000000000ULL);
  const uint64x2_t qnan = vdupq_n_u64(0x7ff8000000000000ULL);
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    uint64x2_t bits = vreinterpretq_u64_f64(vld1q_f64(values + i));
    const uint64x2_t abs = vandq_u64(bits, abs_mask);
    // +-0.0 -> +0.0: magnitude zero means the whole word becomes zero.
    const uint64x2_t zero_mask = vceqq_u64(abs, vdupq_n_u64(0));
    bits = vbicq_u64(bits, zero_mask);
    // NaN (magnitude > exponent-all-ones) -> one canonical quiet NaN.
    const uint64x2_t nan_mask = vcgtq_u64(abs, exp_mask);
    bits = vbslq_u64(nan_mask, qnan, bits);
    out[i] = Hash64(vgetq_lane_u64(bits, 0));
    out[i + 1] = Hash64(vgetq_lane_u64(bits, 1));
  }
  for (; i < count; ++i) out[i] = HashDoubleValue(values[i]);
}
#endif

SimdLevel DetectWidestLevel() {
  if (SimdLevelAvailable(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  if (SimdLevelAvailable(SimdLevel::kNeon)) return SimdLevel::kNeon;
  return SimdLevel::kScalar;
}

SimdLevel ResolveActiveLevel() {
  const char* env = std::getenv("NDV_SIMD");
  if (env == nullptr || env[0] == '\0') return DetectWidestLevel();
  SimdLevel requested;
  if (!ParseSimdLevel(env, &requested)) {
    std::fprintf(stderr,
                 "ndv: unknown NDV_SIMD value '%s' "
                 "(use scalar|avx2|neon|native); using native dispatch\n",
                 env);
    return DetectWidestLevel();
  }
  if (!SimdLevelAvailable(requested)) {
    std::fprintf(stderr,
                 "ndv: NDV_SIMD=%s is not available on this CPU; "
                 "falling back to scalar\n",
                 SimdLevelName(requested));
    return SimdLevel::kScalar;
  }
  return requested;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

bool SimdLevelAvailable(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(NDV_HAVE_AVX2_TU)
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("pclmul") != 0;
#else
      return false;
#endif
    case SimdLevel::kNeon:
#if defined(NDV_HAVE_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool ParseSimdLevel(std::string_view text, SimdLevel* out) {
  if (text == "scalar") {
    *out = SimdLevel::kScalar;
    return true;
  }
  if (text == "avx2") {
    *out = SimdLevel::kAvx2;
    return true;
  }
  if (text == "neon") {
    *out = SimdLevel::kNeon;
    return true;
  }
  if (text == "native" || text.empty()) {
    *out = DetectWidestLevel();
    return true;
  }
  return false;
}

SimdLevel ActiveSimdLevel() {
  static const SimdLevel level = ResolveActiveLevel();
  return level;
}

// --- Explicit-level entry points. -----------------------------------------

void HashInt64SpanAt(SimdLevel level, const int64_t* values, size_t count,
                     uint64_t* out) {
  NDV_CHECK_MSG(SimdLevelAvailable(level), "SIMD level %s unavailable",
                SimdLevelName(level));
  switch (level) {
#if defined(NDV_HAVE_AVX2_TU)
    case SimdLevel::kAvx2:
      simd_internal::HashInt64SpanAvx2(values, count, out);
      return;
#endif
    default:
      HashInt64SpanScalar(values, count, out);
      return;
  }
}

void HashDoubleSpanAt(SimdLevel level, const double* values, size_t count,
                      uint64_t* out) {
  NDV_CHECK_MSG(SimdLevelAvailable(level), "SIMD level %s unavailable",
                SimdLevelName(level));
  switch (level) {
#if defined(NDV_HAVE_AVX2_TU)
    case SimdLevel::kAvx2:
      simd_internal::HashDoubleSpanAvx2(values, count, out);
      return;
#endif
#if defined(NDV_HAVE_NEON)
    case SimdLevel::kNeon:
      HashDoubleSpanNeon(values, count, out);
      return;
#endif
    default:
      HashDoubleSpanScalar(values, count, out);
      return;
  }
}

void HashInt64GatherAt(SimdLevel level, const int64_t* base,
                       const int64_t* rows, size_t count, uint64_t* out) {
  NDV_CHECK_MSG(SimdLevelAvailable(level), "SIMD level %s unavailable",
                SimdLevelName(level));
  switch (level) {
#if defined(NDV_HAVE_AVX2_TU)
    case SimdLevel::kAvx2:
      simd_internal::HashInt64GatherAvx2(base, rows, count, out);
      return;
#endif
    default:
      HashInt64GatherScalar(base, rows, count, out);
      return;
  }
}

void HashDoubleGatherAt(SimdLevel level, const double* base,
                        const int64_t* rows, size_t count, uint64_t* out) {
  NDV_CHECK_MSG(SimdLevelAvailable(level), "SIMD level %s unavailable",
                SimdLevelName(level));
  switch (level) {
#if defined(NDV_HAVE_AVX2_TU)
    case SimdLevel::kAvx2:
      simd_internal::HashDoubleGatherAvx2(base, rows, count, out);
      return;
#endif
    default:
      HashDoubleGatherScalar(base, rows, count, out);
      return;
  }
}

void HashLookupCodes32At(SimdLevel level, const int32_t* codes,
                         const uint64_t* lut, size_t count, uint64_t* out) {
  NDV_CHECK_MSG(SimdLevelAvailable(level), "SIMD level %s unavailable",
                SimdLevelName(level));
  switch (level) {
#if defined(NDV_HAVE_AVX2_TU)
    case SimdLevel::kAvx2:
      simd_internal::HashLookupCodes32Avx2(codes, lut, count, out);
      return;
#endif
    default:
      HashLookupCodes32Scalar(codes, lut, count, out);
      return;
  }
}

uint64_t Crc64NvmeUpdateAt(SimdLevel level, uint64_t crc,
                           const uint8_t* bytes, size_t count) {
  NDV_CHECK_MSG(SimdLevelAvailable(level), "SIMD level %s unavailable",
                SimdLevelName(level));
  switch (level) {
#if defined(NDV_HAVE_AVX2_TU)
    case SimdLevel::kAvx2:
      return simd_internal::Crc64NvmeUpdateAvx2(crc, bytes, count);
#endif
    default:
      return simd_internal::Crc64NvmeUpdateTable(crc, bytes, count);
  }
}

// --- Dispatching entry points. --------------------------------------------

void HashInt64Span(const int64_t* values, size_t count, uint64_t* out) {
  HashInt64SpanAt(ActiveSimdLevel(), values, count, out);
}

void HashDoubleSpan(const double* values, size_t count, uint64_t* out) {
  HashDoubleSpanAt(ActiveSimdLevel(), values, count, out);
}

void HashInt64Gather(const int64_t* base, const int64_t* rows, size_t count,
                     uint64_t* out) {
  HashInt64GatherAt(ActiveSimdLevel(), base, rows, count, out);
}

void HashDoubleGather(const double* base, const int64_t* rows, size_t count,
                      uint64_t* out) {
  HashDoubleGatherAt(ActiveSimdLevel(), base, rows, count, out);
}

void HashLookupCodes32(const int32_t* codes, const uint64_t* lut,
                       size_t count, uint64_t* out) {
  HashLookupCodes32At(ActiveSimdLevel(), codes, lut, count, out);
}

uint64_t Crc64NvmeUpdate(uint64_t crc, const uint8_t* bytes, size_t count) {
  return Crc64NvmeUpdateAt(ActiveSimdLevel(), crc, bytes, count);
}

void GatherDeltaValues(int width, uint64_t base, const uint8_t* deltas,
                       size_t count, std::span<const uint32_t> offsets,
                       int64_t* out) {
#if defined(NDV_HAVE_AVX2_TU)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    return simd_internal::GatherDeltaValuesAvx2(width, base, deltas, count,
                                                offsets, out);
  }
#endif
  simd_internal::GatherDeltaValuesGeneric(width, base, deltas, count, offsets,
                                          out);
}

uint64_t Crc64Nvme(std::string_view bytes) {
  return ~Crc64NvmeUpdate(~uint64_t{0},
                          reinterpret_cast<const uint8_t*>(bytes.data()),
                          bytes.size());
}

namespace simd_internal {

namespace {

// The wrapping sum of the first `count` signed T deltas of a 16-byte
// chunk. The count only selects lanes, so no branch depends on it.
template <typename T>
struct GenericChunkSum {
  static uint64_t Of(const uint8_t* chunk, size_t count) {
    uint64_t sum = 0;
    for (size_t i = 0; i < 16 / sizeof(T); ++i) {
      T delta;
      std::memcpy(&delta, chunk + i * sizeof(T), sizeof(T));
      sum +=
          i < count ? static_cast<uint64_t>(static_cast<int64_t>(delta)) : 0;
    }
    return sum;
  }
};

}  // namespace

uint64_t* DeltaChunkScratch(size_t size) {
  static thread_local std::vector<uint64_t> values;
  if (values.size() < size) values.resize(size);
  return values.data();
}

void GatherDeltaValuesGeneric(int width, uint64_t base,
                              const uint8_t* deltas, size_t count,
                              std::span<const uint32_t> offsets,
                              int64_t* out) {
  switch (width) {
    case 1:
      return GatherDeltasChunked<int8_t, GenericChunkSum<int8_t>>(
          base, deltas, count, offsets, out);
    case 2:
      return GatherDeltasChunked<int16_t, GenericChunkSum<int16_t>>(
          base, deltas, count, offsets, out);
    case 4:
      return GatherDeltasChunked<int32_t, GenericChunkSum<int32_t>>(
          base, deltas, count, offsets, out);
    default:
      NDV_DCHECK(width == 8);
      return GatherDeltasChunked<int64_t, GenericChunkSum<int64_t>>(
          base, deltas, count, offsets, out);
  }
}

uint64_t Crc64NvmeUpdateTable(uint64_t crc, const uint8_t* bytes,
                              size_t count) {
  static_assert(std::endian::native == std::endian::little,
                "the word loop reads the message little-endian");
  const CrcTables& t = kCrcTables;
  for (; count >= 8; bytes += 8, count -= 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    crc ^= word;
    crc = t[7][crc & 0xff] ^ t[6][(crc >> 8) & 0xff] ^
          t[5][(crc >> 16) & 0xff] ^ t[4][(crc >> 24) & 0xff] ^
          t[3][(crc >> 32) & 0xff] ^ t[2][(crc >> 40) & 0xff] ^
          t[1][(crc >> 48) & 0xff] ^ t[0][crc >> 56];
  }
  for (; count > 0; ++bytes, --count) {
    crc = t[0][(crc ^ *bytes) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace simd_internal

}  // namespace ndv
