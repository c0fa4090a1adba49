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

// Version 3: the v2 block layout under the lane-parallel PackChecksum.
inline constexpr std::string_view kPackMagic = "NDVPACK3";
inline constexpr uint32_t kPackVersion = 3;
// Magics of the removed formats: v1 (whole-column arrays) and v2 (this
// layout under a serial checksum). The parser still recognizes them, to
// reject such files with an error that names them.
inline constexpr std::string_view kPackV1Magic = "NDVPACK1";
inline constexpr std::string_view kPackV2Magic = "NDVPACK2";
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
// needs the whole file in memory. Eight independent Hash64 lanes: lane j
// starts at its own fixed seed and folds word j (8 LE bytes) of every full
// 64-byte stripe. Finish() folds the lanes in order into one accumulator,
// then the < 64 leftover bytes 8 at a time (zero-padded last word), then
// the total length. Every fold is a bijection in the word it folds, so
// any single-word change always changes the sum; the independent lanes
// let a core overlap the multiplies of eight words instead of chaining
// them. Append is chunking-invariant.
class PackChecksummer {
 public:
  PackChecksummer();
  void Append(std::string_view bytes);
  // Finalizes over everything appended so far. Idempotent w.r.t. state:
  // does not consume the checksummer.
  uint64_t Finish() const;

 private:
  static constexpr size_t kLanes = 8;
  static constexpr size_t kStripeBytes = 8 * kLanes;

  void FoldStripes(const uint8_t* bytes, size_t stripes);

  uint64_t lanes_[kLanes];
  uint64_t total_bytes_ = 0;
  uint8_t pending_[kStripeBytes] = {};
  size_t pending_count_ = 0;
};

// Convenience: checksum of one contiguous buffer.
uint64_t PackChecksum(std::span<const uint8_t> bytes);

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

}  // namespace ndv

#endif  // NDV_STORAGE_PACK_CODEC_H_
