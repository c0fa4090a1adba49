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
  if (head.size() < kPackMagic.size() || !head.starts_with(kPackMagicStem)) {
    return false;
  }
  const char digit = head[kPackMagicStem.size()];
  return digit >= '0' && digit <= '9';
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
