#ifndef NDV_COMMON_SIMD_HASH_H_
#define NDV_COMMON_SIMD_HASH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace ndv {

// Runtime-dispatched batch hash kernels — the vector lanes under the
// Column::HashSlice / HashRange virtuals — and the CRC-64/NVME kernel under
// the ndvpack checksum (DESIGN.md §15).
//
// Every kernel is bit-identical to the scalar reference at every input:
// the AVX2 path computes the exact Hash64 mix (the 64x64 multiply is
// synthesized from 32-bit multiplies, which is exact for the low 64 bits),
// and double canonicalization (-0.0 -> +0.0, every NaN payload -> one
// canonical quiet NaN) happens on the same bit patterns the scalar
// HashDoubleValue canonicalizes. Estimates therefore do not depend on the
// host CPU — the determinism contract that lets baselines, tests, and
// distributed replicas compare results byte-for-byte across machines.
//
// Dispatch: resolved once per process. The NDV_SIMD environment variable
// overrides detection ("scalar", "avx2", "neon", "native"/unset = detect);
// requesting a level the CPU lacks falls back to scalar with a warning on
// stderr. Tests and benches can bypass dispatch with the explicit-level
// entry points to compare levels inside one process.

enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,  // x86-64 AVX2 + PCLMULQDQ: 4 lanes of 64-bit mixing, CRC fold
  kNeon = 2,  // aarch64 NEON: vector canonicalization, scalar mixing
};

// Human-readable level name ("scalar", "avx2", "neon").
const char* SimdLevelName(SimdLevel level);

// True when this binary can execute `level` on this CPU.
bool SimdLevelAvailable(SimdLevel level);

// The level all dispatching kernels use. Resolved once: NDV_SIMD override
// if set and available, else the widest available level.
SimdLevel ActiveSimdLevel();

// Parses an NDV_SIMD-style string. Returns false for unknown values.
// "native" (or empty) selects the widest available level.
bool ParseSimdLevel(std::string_view text, SimdLevel* out);

// --- Dispatching kernels (use ActiveSimdLevel()). -------------------------

// out[i] = Hash64(uint64(values[i])).
void HashInt64Span(const int64_t* values, size_t count, uint64_t* out);

// out[i] = HashDoubleValue(values[i]).
void HashDoubleSpan(const double* values, size_t count, uint64_t* out);

// Gather: out[i] = Hash64(uint64(base[rows[i]])). Rows must be in bounds
// for the caller's array; the kernel does not range-check.
void HashInt64Gather(const int64_t* base, const int64_t* rows, size_t count,
                     uint64_t* out);

// Gather: out[i] = HashDoubleValue(base[rows[i]]).
void HashDoubleGather(const double* base, const int64_t* rows, size_t count,
                      uint64_t* out);

// Dictionary-code path: out[i] = lut[codes[i]]. Codes must be in bounds
// (the pack deserializer validates them before any hashing).
void HashLookupCodes32(const int32_t* codes, const uint64_t* lut,
                       size_t count, uint64_t* out);

// Delta-block gather (DESIGN.md §10): out[j] = base plus the wrapping sum
// of the first offsets[j] of the `count` signed little-endian deltas of
// `width` bytes (1, 2, 4 or 8) at `deltas`, i.e. the value at offsets[j]
// of a delta-coded block. Offsets come in any order, repeats allowed, each
// <= count. One pass sums the deltas below the largest offset 16 bytes at
// a time into a per-thread array of running values at chunk boundaries;
// each offset then adds the head of its chunk. AVX2 hosts sum widths 1
// and 2 with psadbw / pmaddwd; every other width and level runs the
// generic chunk loop, which computes the same wrapping sums.
void GatherDeltaValues(int width, uint64_t base, const uint8_t* deltas,
                       size_t count, std::span<const uint32_t> offsets,
                       int64_t* out);

// CRC-64/NVME (poly 0xAD93D23594C93659, reflected): advances the raw
// register `crc` over `count` bytes and returns it. The caller applies the
// all-ones init and xorout, so a stream can be fed in any chunking. The
// scalar and NEON levels use a slicing-by-8 table; AVX2 folds 64 bytes at
// a time with carry-less multiplies and finishes with the table, which
// makes it equal to the table path by construction.
uint64_t Crc64NvmeUpdate(uint64_t crc, const uint8_t* bytes, size_t count);

// The one-shot CRC-64/NVME (init and xorout all ones; check("123456789") =
// 0xae8b14860a799888): the checksum of every durable artifact — the
// ndvpack header and trailer (DESIGN.md §15), WAL records and snapshots
// (§14).
uint64_t Crc64Nvme(std::string_view bytes);

// --- Explicit-level kernels (tests / benches). ----------------------------
// Requires SimdLevelAvailable(level); an unavailable level aborts.

void HashInt64SpanAt(SimdLevel level, const int64_t* values, size_t count,
                     uint64_t* out);
void HashDoubleSpanAt(SimdLevel level, const double* values, size_t count,
                      uint64_t* out);
void HashInt64GatherAt(SimdLevel level, const int64_t* base,
                       const int64_t* rows, size_t count, uint64_t* out);
void HashDoubleGatherAt(SimdLevel level, const double* base,
                        const int64_t* rows, size_t count, uint64_t* out);
void HashLookupCodes32At(SimdLevel level, const int32_t* codes,
                         const uint64_t* lut, size_t count, uint64_t* out);
// Test-only: the bit-identity reference that pins the PCLMUL fold to the
// table in one process.
uint64_t Crc64NvmeUpdateAt(SimdLevel level, uint64_t crc,
                           const uint8_t* bytes, size_t count);

}  // namespace ndv

#endif  // NDV_COMMON_SIMD_HASH_H_
