#ifndef NDV_COMMON_SIMD_HASH_H_
#define NDV_COMMON_SIMD_HASH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace ndv {

// The two runtime-dispatched kernels whose vector paths pay off end to
// end (DESIGN.md §15): the CRC-64/NVME checksum of every durable artifact
// and the delta-block gather under a sampled ANALYZE of a pack. Value
// hashing has no vector path; its one loop per value type is in
// common/value_hash.h.
//
// Every level returns the same bits as the scalar level at every input:
// the CRC fold only moves message bits by a congruent amount (mod P) and
// finishes with the table, and the delta chunk sums are wrapping integer
// sums, exact in any order.
//
// Dispatch: resolved once per process. The NDV_SIMD environment variable
// overrides detection ("scalar", "avx2", "native"/unset = detect);
// requesting a level the CPU lacks falls back to scalar with a warning on
// stderr. Tests compare levels inside one process through
// Crc64NvmeUpdateAt.

enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,  // x86-64 AVX2 + PCLMULQDQ: CRC fold, SSE2 delta chunk sums
};

// Human-readable level name ("scalar", "avx2").
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

// Delta-block gather (DESIGN.md §10): out[j] = base plus the wrapping sum
// of the first offsets[j] of the `count` signed little-endian deltas of
// `width` bytes (1, 2, 4 or 8) at `deltas`, i.e. the value at offsets[j]
// of a delta-coded block. Offsets come in any order, repeats allowed, each
// <= count. One pass sums the deltas below the largest offset 16 bytes at
// a time into a per-thread array of running values at chunk boundaries;
// each offset then adds the head of its chunk. At the avx2 level widths 1
// and 2 sum with psadbw / pmaddwd; every other width and level runs the
// generic chunk loop, which computes the same wrapping sums.
void GatherDeltaValues(int width, uint64_t base, const uint8_t* deltas,
                       size_t count, std::span<const uint32_t> offsets,
                       int64_t* out);

// CRC-64/NVME (poly 0xAD93D23594C93659, reflected): advances the raw
// register `crc` over `count` bytes and returns it. The caller applies the
// all-ones init and xorout, so a stream can be fed in any chunking. The
// scalar level uses a slicing-by-8 table; AVX2 folds 64 bytes at a time
// with carry-less multiplies and finishes with the table, which makes it
// equal to the table path by construction.
uint64_t Crc64NvmeUpdate(uint64_t crc, const uint8_t* bytes, size_t count);

// The one-shot CRC-64/NVME (init and xorout all ones; check("123456789") =
// 0xae8b14860a799888): the checksum of every durable artifact — the
// ndvpack header and trailer (DESIGN.md §15), WAL records and snapshots
// (§14).
uint64_t Crc64Nvme(std::string_view bytes);

// Test-only: Crc64NvmeUpdate at an explicit level, the bit-identity
// reference that pins the PCLMUL fold to the table in one process.
// Requires SimdLevelAvailable(level); an unavailable level aborts.
uint64_t Crc64NvmeUpdateAt(SimdLevel level, uint64_t crc,
                           const uint8_t* bytes, size_t count);

}  // namespace ndv

#endif  // NDV_COMMON_SIMD_HASH_H_
