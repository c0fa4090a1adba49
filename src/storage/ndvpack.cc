#include "storage/ndvpack.h"

#include <bit>
#include <utility>

#include "storage/mapped_file.h"
#include "storage/pack_codec.h"
#include "storage/pack_reader.h"

namespace ndv {

// The format stores integers little-endian and the readers alias the
// payload in place; a big-endian port would need byte-swapping copies.
static_assert(std::endian::native == std::endian::little,
              "ndvpack readers alias little-endian payloads in place");

bool StartsWithPackMagic(std::string_view head) {
  return head.starts_with(kPackMagic) || head.starts_with(kPackV2Magic) ||
         head.starts_with(kPackV1Magic);
}

StatusOr<Table> OpenPackFile(const std::string& path) {
  auto file = MappedFile::Open(path);
  if (!file.ok()) return file.status();
  // The parser checksums the whole image front to back before any column
  // materializes — announce the one-pass read so the kernel streams it.
  (*file)->AdviseSequential(0, (*file)->size());
  const std::span<const uint8_t> bytes = (*file)->bytes();
  auto table = OpenPackV2FromBytes(bytes, *std::move(file));
  if (!table.ok()) {
    return Status(table.status().code(),
                  path + ": " + table.status().message());
  }
  return table;
}

}  // namespace ndv
