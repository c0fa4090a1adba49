// Fuzzes the durable record decoder (catalog/durable_catalog.h), the one
// parser recovery runs over the bytes of every WAL and snapshot file. Each
// input is tried as a snapshot image and as a run of WAL record frames.
// Properties beyond "no crash":
//   - untrusted input NEVER aborts: malformed bytes yield a Status with a
//     non-empty message;
//   - accepted input re-encodes to the same bytes: a snapshot that
//     DecodeSnapshot accepts is exactly EncodeSnapshot of what it decoded,
//     and every frame that TakeDurableRecord + ApplyDurableRecord accept
//     is exactly the Encode*Record of what they decoded.

#include <cstdint>
#include <string>
#include <string_view>

#include "catalog/durable_catalog.h"
#include "common/byte_codec.h"
#include "common/check.h"

namespace {

constexpr size_t kMaxInputBytes = 1 << 16;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) return 0;
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  const ndv::Status version = ndv::CheckDurableVersion(bytes, "input");
  NDV_CHECK(version.ok() || !version.message().empty());

  const auto snapshot = ndv::DecodeSnapshot(bytes);
  if (snapshot.ok()) {
    NDV_CHECK(ndv::EncodeSnapshot(snapshot->catalog, snapshot->epoch) ==
              bytes);
  } else {
    NDV_CHECK(!snapshot.status().message().empty());
  }

  ndv::ByteReader frames(bytes, kMaxInputBytes);
  ndv::DurableRecord record;
  size_t frame_start = 0;
  while (ndv::TakeDurableRecord(&frames, &record).ok()) {
    const size_t frame_end = bytes.size() - frames.remaining();
    ndv::StatsCatalog state;
    const ndv::Status applied = ndv::ApplyDurableRecord(record, &state);
    if (applied.ok()) {
      const std::string encoded =
          record.kind == ndv::DurableRecordKind::kPut
              ? ndv::EncodePutRecord(record.epoch, state.entries().front())
              : ndv::EncodePublishRecord(record.epoch, state);
      NDV_CHECK(encoded ==
                bytes.substr(frame_start, frame_end - frame_start));
    } else {
      NDV_CHECK(!applied.message().empty());
    }
    frame_start = frame_end;
  }
  return 0;
}
