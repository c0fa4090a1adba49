// Microbenchmarks: ingestion and time-to-first-estimate, CSV text parse vs
// ndvpack mmap. The claim under test is the storage layer's reason to
// exist: a packed table re-opens in O(header) — pages fault in lazily as
// the scan touches them — so a *repeat* ANALYZE pays nothing to re-ingest,
// while the CSV path re-parses every byte of text each time.
//
//   ./build/bench/micro_ingest --benchmark_format=json
//
// Fixtures (written once per process into the temp dir): a 1M-row table
// with int64 / double / string columns, stored both as CSV text and as an
// .ndvpack image of the same data.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "catalog/stats_catalog.h"
#include "common/check.h"
#include "common/random.h"
#include "common/simd_hash.h"
#include "sample/samplers.h"
#include "storage/mapped_file.h"
#include "storage/ndvpack.h"
#include "storage/pack_codec.h"
#include "storage/pack_writer.h"
#include "storage/table_loader.h"
#include "table/column_sampling.h"
#include "table/csv.h"
#include "table/table.h"

namespace {

constexpr int64_t kRows = 1000000;

ndv::Table MakeTable() {
  std::vector<int64_t> ids;
  std::vector<double> scores;
  std::vector<std::string> labels;
  ids.reserve(kRows);
  scores.reserve(kRows);
  labels.reserve(kRows);
  ndv::Rng rng(67);
  for (int64_t i = 0; i < kRows; ++i) {
    ids.push_back(static_cast<int64_t>(rng.NextBounded(200000)));
    scores.push_back(static_cast<double>(rng.NextBounded(100000)) / 128.0);
    labels.push_back("label_" + std::to_string(rng.NextBounded(5000)));
  }
  ndv::Table table;
  table.AddColumn("id", std::make_unique<ndv::Int64Column>(std::move(ids)));
  table.AddColumn("score",
                  std::make_unique<ndv::DoubleColumn>(std::move(scores)));
  table.AddColumn("label",
                  std::make_unique<ndv::StringColumn>(std::move(labels)));
  return table;
}

struct Fixture {
  std::string csv_path;
  std::string pack_path;
};

// Writes both fixture files exactly once per process.
const Fixture& GetFixture() {
  static const Fixture fixture = [] {
    Fixture f;
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
    f.csv_path = dir + "/ndv_micro_ingest.csv";
    f.pack_path = dir + "/ndv_micro_ingest.ndvpack";

    const ndv::Table table = MakeTable();
    NDV_CHECK(ndv::WritePackFileV2(table, f.pack_path).ok());

    std::string csv = "id,score,label\n";
    csv.reserve(40u * kRows);
    char line[128];
    for (int64_t i = 0; i < kRows; ++i) {
      std::snprintf(line, sizeof(line), "%s,%s,%s\n",
                    table.column(0).ValueToString(i).c_str(),
                    table.column(1).ValueToString(i).c_str(),
                    table.column(2).ValueToString(i).c_str());
      csv += line;
    }
    std::FILE* out = std::fopen(f.csv_path.c_str(), "wb");
    NDV_CHECK(out != nullptr);
    NDV_CHECK(std::fwrite(csv.data(), 1, csv.size(), out) == csv.size());
    std::fclose(out);
    return f;
  }();
  return fixture;
}

// --------------------------------------------------------------------------
// Load only: text parse vs mmap open.

void BM_LoadCsv(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  for (auto _ : state) {
    auto table = ndv::LoadTableAuto(fixture.csv_path);
    NDV_CHECK(table.ok());
    benchmark::DoNotOptimize(table->NumRows());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_LoadCsv)->Unit(benchmark::kMillisecond);

void BM_LoadPack(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  for (auto _ : state) {
    auto table = ndv::LoadTableAuto(fixture.pack_path);
    NDV_CHECK(table.ok());
    benchmark::DoNotOptimize(table->NumRows());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_LoadPack)->Unit(benchmark::kMillisecond);

// The pack checksum alone over the whole fixture image (already mapped and
// faulted in): the part of BM_LoadPack that scales with the file size.
void BM_PackCrc64(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  auto file = ndv::MappedFile::Open(fixture.pack_path);
  NDV_CHECK(file.ok());
  const std::span<const uint8_t> bytes = (*file)->bytes();
  const std::string_view image(reinterpret_cast<const char*>(bytes.data()),
                               bytes.size());
  for (auto _ : state) benchmark::DoNotOptimize(ndv::Crc64Nvme(image));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_PackCrc64)->Unit(benchmark::kMillisecond);

// The floor under BM_PackCrc64: an XOR-fold of the same mapped bytes, a
// read at memory speed with no checksum work. The Release CI job bounds
// the checksum's median by a multiple of this one's.
void BM_PackReadReference(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  auto file = ndv::MappedFile::Open(fixture.pack_path);
  NDV_CHECK(file.ok());
  const std::span<const uint8_t> bytes = (*file)->bytes();
  for (auto _ : state) {
    uint64_t fold = 0;
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
      uint64_t word;
      std::memcpy(&word, bytes.data() + i, sizeof(word));
      fold ^= word;
    }
    for (; i < bytes.size(); ++i) fold ^= bytes[i];
    benchmark::DoNotOptimize(fold);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_PackReadReference)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Time-to-first-estimate: load + full ANALYZE of every column. This is the
// repeat-ANALYZE loop an operator actually runs: the file already exists;
// each iteration re-ingests and re-estimates. The pack path amortizes
// ingestion to an mmap call, so its steady-state cost is the sampling scan
// alone.

void AnalyzeOnce(const std::string& path, benchmark::State& state) {
  auto table = ndv::LoadTableAuto(path);
  NDV_CHECK(table.ok());
  ndv::AnalyzeOptions options;
  options.sample_fraction = 0.01;
  options.seed = 5;
  options.threads = 1;
  const ndv::StatsCatalog catalog = ndv::AnalyzeTable(*table, options);
  NDV_CHECK(catalog.entries().size() == 3);
  benchmark::DoNotOptimize(catalog.entries().front().estimate);
  (void)state;
}

void BM_FirstEstimateCsv(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  for (auto _ : state) AnalyzeOnce(fixture.csv_path, state);
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_FirstEstimateCsv)->Unit(benchmark::kMillisecond);

void BM_FirstEstimatePack(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  for (auto _ : state) AnalyzeOnce(fixture.pack_path, state);
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_FirstEstimatePack)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// One-time conversion cost, for the pack-once/scan-forever tradeoff: how
// long the `ndv_pack` step itself takes (parse CSV + serialize + write).

void BM_PackFromCsv(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  const std::string out_path = fixture.pack_path + ".rewrite";
  for (auto _ : state) {
    auto table = ndv::LoadTableAuto(fixture.csv_path);
    NDV_CHECK(table.ok());
    NDV_CHECK(ndv::WritePackFileV2(*table, out_path).ok());
  }
  std::remove(out_path.c_str());
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_PackFromCsv)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Block codecs (v2): pack size and scan cost per codec policy on a table
// shaped like real warehouse data — a sorted (delta-friendly) int64 key, a
// uniform (incompressible) double, a 50-value (dict-friendly) label. The
// claim: auto halves the file and the sampled ANALYZE scan still runs
// faster than on raw, because the sampled gather reads delta and dict
// blocks in place (HashRange buckets the sampled rows by block)
// with kernels specialized for the block's width.

ndv::Table MakeCompressibleTable() {
  std::vector<int64_t> keys;
  std::vector<double> scores;
  std::vector<std::string> labels;
  keys.reserve(kRows);
  scores.reserve(kRows);
  labels.reserve(kRows);
  ndv::Rng rng(83);
  int64_t key = 1000000000;
  for (int64_t i = 0; i < kRows; ++i) {
    key += static_cast<int64_t>(rng.NextBounded(100));
    keys.push_back(key);
    scores.push_back(static_cast<double>(rng.NextBounded(1000000)) / 64.0);
    labels.push_back("region_" + std::to_string(rng.NextBounded(50)));
  }
  ndv::Table table;
  table.AddColumn("key", std::make_unique<ndv::Int64Column>(std::move(keys)));
  table.AddColumn("score",
                  std::make_unique<ndv::DoubleColumn>(std::move(scores)));
  table.AddColumn("label",
                  std::make_unique<ndv::StringColumn>(std::move(labels)));
  return table;
}

ndv::PackCodecChoice CodecArg(int64_t arg) {
  switch (arg) {
    case 1: return ndv::PackCodecChoice::kForceRaw;
    case 2: return ndv::PackCodecChoice::kForceDelta;
    case 3: return ndv::PackCodecChoice::kForceDict;
  }
  return ndv::PackCodecChoice::kAutoCodec;
}

// One packed fixture per codec policy, written once per process; the
// file-size counter is the on-disk compression result.
const std::string& GetCodecFixture(int64_t arg, uint64_t* file_bytes) {
  static std::string paths[4];
  static uint64_t sizes[4];
  const auto index = static_cast<size_t>(arg);
  if (paths[index].empty()) {
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
    paths[index] = dir + "/ndv_micro_ingest_codec_" +
                   ndv::PackCodecChoiceName(CodecArg(arg)) + ".ndvpack";
    ndv::PackWriteOptions options;
    options.codec = CodecArg(arg);
    const ndv::Table table = MakeCompressibleTable();
    NDV_CHECK(ndv::WritePackFileV2(table, paths[index], options).ok());
    auto mapped = ndv::MappedFile::Open(paths[index]);
    NDV_CHECK(mapped.ok());
    sizes[index] = (*mapped)->size();
  }
  *file_bytes = sizes[index];
  return paths[index];
}

// Conversion cost per codec (encode side).
void BM_PackWriteCodec(benchmark::State& state) {
  const ndv::Table table = MakeCompressibleTable();
  ndv::PackWriteOptions options;
  options.codec = CodecArg(state.range(0));
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string out_path =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/ndv_micro_ingest_codec.rewrite";
  for (auto _ : state) {
    NDV_CHECK(ndv::WritePackFileV2(table, out_path, options).ok());
  }
  {
    auto mapped = ndv::MappedFile::Open(out_path);
    NDV_CHECK(mapped.ok());
    state.counters["file_bytes"] = static_cast<double>((*mapped)->size());
  }
  std::remove(out_path.c_str());
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(ndv::PackCodecChoiceName(options.codec));
}
BENCHMARK(BM_PackWriteCodec)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Sampled ANALYZE over each codec. A 1% sample touches every 4096-row
// block, so the gather sums every delta block's deltas (in place, nothing
// decoded) once per op; auto still beats
// raw (BENCH_ingest.json: 2.6 ms against 4.5 ms), and the Release CI job
// fails when its median exceeds raw's.
void BM_FirstEstimatePackCodec(benchmark::State& state) {
  uint64_t file_bytes = 0;
  const std::string& path = GetCodecFixture(state.range(0), &file_bytes);
  for (auto _ : state) AnalyzeOnce(path, state);
  state.counters["file_bytes"] = static_cast<double>(file_bytes);
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(ndv::PackCodecChoiceName(CodecArg(state.range(0))));
}
BENCHMARK(BM_FirstEstimatePackCodec)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Full-scan exact count over each codec: the upper bound on decode
// overhead (every block decompresses exactly once per scan).
void BM_ExactScanPackCodec(benchmark::State& state) {
  uint64_t file_bytes = 0;
  const std::string& path = GetCodecFixture(state.range(0), &file_bytes);
  auto table = ndv::LoadTableAuto(path);
  NDV_CHECK(table.ok());
  for (auto _ : state) {
    int64_t total = 0;
    for (int64_t c = 0; c < table->NumColumns(); ++c) {
      total += ndv::ExactDistinctHashSet(table->column(c), 1);
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["file_bytes"] = static_cast<double>(file_bytes);
  state.SetItemsProcessed(state.iterations() * kRows * table->NumColumns());
  state.SetLabel(ndv::PackCodecChoiceName(CodecArg(state.range(0))));
}
BENCHMARK(BM_ExactScanPackCodec)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The per-column stage under BM_FirstEstimatePackCodec: SummarizeRows of a
// 1% Floyd sample of one 1M-row column, gather and count, with the draw
// and the pack open outside the timed loop. Args: the codec policy (as
// CodecArg) and the column (0 = the sorted int64 key, 2 = the 50-value
// label), so raw/key and delta/key, raw/label and dict/label time the
// same values under two codecs. The Release CI job fails when delta or
// dict exceeds 1.5x raw on the same column.
void BM_SummarizeRows(benchmark::State& state) {
  uint64_t file_bytes = 0;
  const std::string& path = GetCodecFixture(state.range(0), &file_bytes);
  auto table = ndv::LoadTableAuto(path);
  NDV_CHECK(table.ok());
  const ndv::Column& column = table->column(state.range(1));
  ndv::Rng rng(7);
  const std::vector<int64_t> rows =
      ndv::SampleWithoutReplacementFloyd(kRows, kRows / 100, rng);
  for (auto _ : state) {
    const ndv::SampleSummary summary = ndv::SummarizeRows(column, rows);
    benchmark::DoNotOptimize(summary.freq.DistinctValues());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
  state.SetLabel(std::string(ndv::PackCodecChoiceName(
                     CodecArg(state.range(0)))) +
                 "/" + table->column_name(state.range(1)));
}
BENCHMARK(BM_SummarizeRows)
    ->Args({1, 0})->Args({2, 0})->Args({1, 2})->Args({3, 2})
    ->Unit(benchmark::kMicrosecond);

// One block decode per (codec, width), in values/s: the layer below the
// two scans above, so a decoder regression shows up here on its own.
// Args: {1 = delta, 2 = dict codes} x the payload width in bytes.
void BM_DecodeBlock(benchmark::State& state) {
  const auto codec = static_cast<ndv::PackBlockCodec>(state.range(0));
  const auto width = static_cast<int>(state.range(1));
  const int64_t rows = ndv::kDefaultPackBlockRows;
  // Random deltas or codes over the width's whole range, so the encoder
  // picks exactly `width` bytes (checked below).
  const uint64_t span = width == 8 ? 0 : uint64_t{1} << (8 * width);
  ndv::Rng rng(97);
  std::string payload;
  ndv::PackBlockEncoding enc;
  if (codec == ndv::PackBlockCodec::kDelta) {
    std::vector<int64_t> values(static_cast<size_t>(rows));
    uint64_t value = 0;
    for (int64_t i = 0; i < rows; ++i) {
      const uint64_t step = span == 0 ? rng.NextU64() : rng.NextBounded(span);
      value += step - span / 2;  // Wraps: a signed step in [-span/2, span/2).
      values[static_cast<size_t>(i)] = static_cast<int64_t>(value);
    }
    enc = ndv::EncodeInt64Block(values, ndv::PackCodecChoice::kForceDelta,
                                &payload);
  } else {
    std::vector<int32_t> codes(static_cast<size_t>(rows));
    for (auto& code : codes) {
      code = static_cast<int32_t>(rng.NextBounded(span));
    }
    codes[0] = static_cast<int32_t>(span - 1);
    enc = ndv::EncodeCodesBlock(codes, ndv::PackCodecChoice::kForceDict,
                                &payload);
  }
  NDV_CHECK(enc.codec == codec && enc.param == width);
  const auto* bytes = reinterpret_cast<const uint8_t*>(payload.data());
  std::vector<int64_t> values(static_cast<size_t>(rows));
  std::vector<int32_t> codes(static_cast<size_t>(rows));
  for (auto _ : state) {
    if (codec == ndv::PackBlockCodec::kDelta) {
      ndv::DecodeInt64Block(enc.codec, enc.param, rows, bytes, values.data());
      benchmark::DoNotOptimize(values.data());
    } else {
      ndv::DecodeCodesBlock(enc.codec, enc.param, rows, bytes, codes.data());
      benchmark::DoNotOptimize(codes.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel(std::string(ndv::PackBlockCodecName(codec)) + "/" +
                 std::to_string(width));
}
BENCHMARK(BM_DecodeBlock)
    ->Args({1, 1})->Args({1, 2})->Args({1, 4})->Args({1, 8})
    ->Args({2, 1})->Args({2, 2});

}  // namespace

BENCHMARK_MAIN();
