#ifndef NDV_STORAGE_NDVPACK_H_
#define NDV_STORAGE_NDVPACK_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "table/table.h"

namespace ndv {

// ndvpack — the library's binary columnar interchange format. The one
// supported format is v4 (magic "NDVPACK4"): block-granular columns with
// per-block codecs, written by storage/pack_writer.h and validated and
// opened by storage/pack_reader.h (DESIGN.md §12, §15). This header holds
// the file-level entry points.
//
// Older formats (v1 "NDVPACK1" through v3 "NDVPACK3") are no longer read
// or written. Every version's magic is "NDVPACK" plus its digit, so such a
// file is rejected with a typed error naming its version instead of
// falling through to the CSV parser.

// Maps `path` and returns its table of block-granular columns. A file of
// any other version fails with InvalidArgument naming it as unsupported; any
// other malformed input fails with a typed Status. Errors name the path.
StatusOr<Table> OpenPackFile(const std::string& path);

// True when `head` begins with the magic of some ndvpack version:
// "NDVPACK" and one decimal digit. The transparent loader uses it to pick
// the pack path over CSV without trusting file extensions; the parser, to
// name a version it does not read.
bool StartsWithPackMagic(std::string_view head);

}  // namespace ndv

#endif  // NDV_STORAGE_NDVPACK_H_
