#ifndef NDV_STORAGE_NDVPACK_H_
#define NDV_STORAGE_NDVPACK_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "table/table.h"

namespace ndv {

// ndvpack — the library's binary columnar interchange format. The one
// supported format is v3 (magic "NDVPACK3"): block-granular columns with
// per-block codecs, written by storage/pack_writer.h and validated and
// opened by storage/pack_reader.h (DESIGN.md §12, §15). This header holds
// the file-level entry points.
//
// The legacy v1 ("NDVPACK1") and v2 ("NDVPACK2") formats are no longer
// read or written. Their magics are still recognized, so such a file is
// rejected with a typed error naming its version instead of falling
// through to the CSV parser.

// Maps `path` and returns its table of block-granular columns. A v1 or v2
// file fails with InvalidArgument naming its version as unsupported; any
// other malformed input fails with a typed Status. Errors name the path.
StatusOr<Table> OpenPackFile(const std::string& path);

// True when `head` begins with an ndvpack magic, v1, v2 or v3. The
// transparent loader uses it to pick the pack path over CSV without
// trusting file extensions.
bool StartsWithPackMagic(std::string_view head);

}  // namespace ndv

#endif  // NDV_STORAGE_NDVPACK_H_
