#ifndef NDV_STORAGE_PACK_CODEC_H_
#define NDV_STORAGE_PACK_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ndv {

// ndvpack v2 block-codec layer (DESIGN.md §15). The v2 format splits every
// column into fixed-size row blocks; each block carries its own codec tag
// and decodes independently, so a sampled scan only pays decompression for
// the blocks it actually touches. The codec split mirrors the file-codec /
// block-codec architecture of bcsv's stream + packet codecs: the file
// level owns layout, checksum, and the directory; the block level owns the
// bytes of one run of rows.
//
// Codecs:
//   raw (0)    int64/double: the little-endian value array, aliased in
//              place (offset 8-aligned). string: int32 code array.
//   delta (1)  int64 only. param = delta byte width w in {0, 1, 2, 4, 8}.
//              Payload: int64 base, then (rows - 1) deltas, each the low w
//              bytes of v[i] - v[i-1] in two's complement (sign-extended
//              on decode, wrap-around arithmetic throughout — INT64_MIN /
//              INT64_MAX neighbors are well-defined). w = 0 encodes a
//              zero-order-hold run: every row equals base, no delta bytes.
//   dict (2)   string only. param = code byte width w in {1, 2, 4}.
//              Payload: rows unsigned little-endian codes of w bytes each,
//              every code < the column's dictionary size (validated at
//              parse time, before any decode).
//
// Validation is split so the hot decode loops carry no data-dependent
// checks: Validate*Block rejects every malformed block with a typed
// Status (fuzz_ndvpack_v2 holds that line); Decode*Block then requires a
// validated block and only DCHECKs. Decode is width-specialized: it
// switches once per block to a loop for that width, in which every delta
// or code is one fixed-size load widened by a cast.

enum class PackBlockCodec : uint8_t {
  kRaw = 0,
  kDelta = 1,
  kDictCodes = 2,
};

// --- File-level constants (layout in storage/pack_writer.h). -------------

// Version 4: the v2 block layout under the CRC-64/NVME checksum. Every
// version's magic is kPackMagicStem plus its version digit; the parser
// recognizes the stem, to reject an older (or newer) version with an error
// that names it.
inline constexpr std::string_view kPackMagicStem = "NDVPACK";
inline constexpr std::string_view kPackMagic = "NDVPACK4";
inline constexpr uint32_t kPackVersion = 4;
// 48 bytes of header fields plus the 8-byte header checksum; the payload
// stream starts here (8-aligned by construction).
inline constexpr uint64_t kPackV2HeaderBytes = 56;
inline constexpr uint64_t kPackV2TrailerBytes = 8;
// Default rows per block: small enough that one decoded block (32 KiB of
// int64) stays cache-resident, large enough to amortize per-block
// directory cost (24 bytes) to < 0.1%.
inline constexpr int64_t kDefaultPackBlockRows = 4096;
// Upper bound a reader will accept; bounds per-block decode scratch.
inline constexpr int64_t kMaxPackBlockRows = 1 << 20;

// Writer-side codec request. kAutoCodec picks per block: delta when it is
// strictly smaller than raw, narrow dict codes when the dictionary fits a
// sub-int32 width; doubles always encode raw (their bit patterns rarely
// delta well and raw keeps them aliasable).
enum class PackCodecChoice {
  kAutoCodec = 0,
  kForceRaw = 1,
  kForceDelta = 2,
  kForceDict = 3,
};

// Parses a --codec= style name (auto|raw|delta|dict). Returns false on
// unknown names.
bool ParsePackCodecChoice(std::string_view text, PackCodecChoice* out);
const char* PackCodecChoiceName(PackCodecChoice choice);
const char* PackBlockCodecName(PackBlockCodec codec);

// --- Streaming checksum. --------------------------------------------------

// The pack checksum (header and trailer), streamed so the writer never
// needs the whole file in memory; the one-shot form is Crc64Nvme
// (common/simd_hash.h): CRC-64/NVME (poly 0xAD93D23594C93659
// reflected, init and xorout all ones; check("123456789") =
// 0xae8b14860a799888). One 64-bit register: Append advances it, Finish
// applies the xorout. A degree-64 CRC detects every burst of up to 64 bits
// and misses a random error with probability 2^-64. Append is
// chunking-invariant.
class PackChecksummer {
 public:
  void Append(std::string_view bytes);
  // Finalizes over everything appended so far. Idempotent w.r.t. state:
  // does not consume the checksummer.
  uint64_t Finish() const { return ~crc_; }

 private:
  uint64_t crc_ = ~uint64_t{0};
};

// --- Block encoding (writer side). ----------------------------------------

struct PackBlockEncoding {
  PackBlockCodec codec = PackBlockCodec::kRaw;
  uint8_t param = 0;
};

// Encodes one int64 block (values.size() >= 1) under `choice`, appending
// the payload bytes to `out`. kAutoCodec picks the smaller of raw and
// delta; kForceDelta always emits delta (minimal width); kForceDict is
// invalid for int64 and falls back to auto.
PackBlockEncoding EncodeInt64Block(std::span<const int64_t> values,
                                   PackCodecChoice choice, std::string* out);

// Encodes one double block: always raw (codec tag kRaw).
PackBlockEncoding EncodeDoubleBlock(std::span<const double> values,
                                    std::string* out);

// Encodes one string-code block. kAutoCodec / kForceDict narrow the codes
// to the width of the block's maximum code (dict wins only when narrower
// than int32 under auto); kForceRaw emits the int32 array.
PackBlockEncoding EncodeCodesBlock(std::span<const int32_t> codes,
                                   PackCodecChoice choice, std::string* out);

// --- Block validation + decode (reader side). -----------------------------

// Structural validation of an int64/double block claim: codec/param legal
// for the type, payload length exactly what codec+rows require. `rows` is
// the directory's row count for the block (>= 1).
Status ValidateValueBlock(PackBlockCodec codec, uint8_t param, bool is_double,
                          int64_t rows, uint64_t payload_length);

// Validation of a string-code block, including the data-dependent check
// that every code is < dict_count (scans the payload once).
Status ValidateCodesBlock(PackBlockCodec codec, uint8_t param, int64_t rows,
                          std::span<const uint8_t> payload,
                          uint64_t dict_count);

// Decodes a validated int64 block into out[0, rows). Raw blocks memcpy;
// callers that can alias raw payloads should do so instead and only call
// this for kDelta.
void DecodeInt64Block(PackBlockCodec codec, uint8_t param, int64_t rows,
                      const uint8_t* payload, int64_t* out);

// Decodes a validated code block into out[0, rows).
void DecodeCodesBlock(PackBlockCodec codec, uint8_t param, int64_t rows,
                      const uint8_t* payload, int32_t* out);

// --- In-place gather (reader side). ---------------------------------------

// Reads a validated int64 block's values at `offsets` (any order, repeats
// allowed, each < rows) into out[0, offsets.size()) without decoding the
// block. A delta block runs GatherDeltaValues (common/simd_hash.h), which
// keeps one running value per 16-byte chunk of deltas rather than per
// row; width 0 is the base at every offset. Raw blocks are read in place.
void GatherInt64Block(PackBlockCodec codec, uint8_t param, int64_t rows,
                      const uint8_t* payload,
                      std::span<const uint32_t> offsets, int64_t* out);

// Reads a validated code block's codes at `offsets` (any order, each <
// the block's rows) in place at their width into out[0, offsets.size()).
// The parser checked every code against the dictionary, so each result
// indexes it.
void GatherCodesBlock(PackBlockCodec codec, uint8_t param,
                      const uint8_t* payload,
                      std::span<const uint32_t> offsets, int32_t* out);

}  // namespace ndv

#endif  // NDV_STORAGE_PACK_CODEC_H_
