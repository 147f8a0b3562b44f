// fpr-trace format and TraceSource replay tests: writer/reader
// round-trips, malformed-input rejection, and the record->replay
// property suite — a recorded synthetic trace replayed through
// io::FileTraceSource must reproduce the synthetic replay's statistics
// exactly, on every Table I machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machines.hpp"
#include "io/trace_format.hpp"
#include "io/trace_replay.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/sim_cache.hpp"
#include "memsim/trace_gen.hpp"
#include "memsim/trace_source.hpp"

namespace fpr::memsim {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_refs(const std::string& path, const std::vector<MemRef>& refs,
                std::uint32_t chunk_records = io::kTraceChunkRecords) {
  io::TraceWriter w(path, chunk_records);
  w.append(refs.data(), refs.size());
  w.finish();
}

std::vector<MemRef> read_all(const std::string& path) {
  io::FileTraceSource src(path);
  std::vector<MemRef> out;
  MemRef block[97];  // deliberately unaligned with any chunk size
  while (true) {
    const std::size_t n = src.fill(block, 97);
    if (n == 0) break;
    out.insert(out.end(), block, block + n);
  }
  return out;
}

bool identical(const HierarchyResult& a, const HierarchyResult& b) {
  if (a.refs != b.refs || a.levels.size() != b.levels.size()) return false;
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    if (a.levels[i].name != b.levels[i].name ||
        a.levels[i].stats.hits != b.levels[i].stats.hits ||
        a.levels[i].stats.misses != b.levels[i].stats.misses ||
        a.levels[i].stats.writebacks != b.levels[i].stats.writebacks) {
      return false;
    }
  }
  return true;
}

/// Record `total` references of the scaled spec to `path`, exactly as
/// `fpr trace-record` does.
void record_spec(const std::string& path, const AccessPatternSpec& scaled,
                 std::uint64_t seed, std::uint64_t total) {
  io::record_trace(path, scaled, seed, total);
}

/// Small-footprint specs covering every pattern class plus a mixture.
std::vector<std::pair<std::string, AccessPatternSpec>> pattern_suite() {
  std::vector<std::pair<std::string, AccessPatternSpec>> out;
  out.emplace_back("stream",
                   AccessPatternSpec::single(StreamPattern{
                       .bytes_per_array = 8ull << 20, .arrays = 3,
                       .writes_per_iter = 1}));
  out.emplace_back("strided", AccessPatternSpec::single(StridedPattern{
                                  .footprint_bytes = 8ull << 20,
                                  .stride_bytes = 256}));
  out.emplace_back("stencil", AccessPatternSpec::single(StencilPattern{
                                  .nx = 96, .ny = 96, .nz = 48,
                                  .elem_bytes = 8, .radius = 1,
                                  .full_box = false}));
  out.emplace_back("gather", AccessPatternSpec::single(GatherPattern{
                                 .table_bytes = 16ull << 20, .elem_bytes = 8,
                                 .sequential_fraction = 0.1}));
  out.emplace_back("chase", AccessPatternSpec::single(ChasePattern{
                                .footprint_bytes = 4ull << 20,
                                .node_bytes = 64}));
  out.emplace_back("blocked", AccessPatternSpec::single(BlockedPattern{
                                  .matrix_bytes = 16ull << 20,
                                  .tile_bytes = 1ull << 19,
                                  .tile_reuse = 8.0}));
  AccessPatternSpec mix;
  mix.components.push_back({StreamPattern{.bytes_per_array = 4ull << 20,
                                          .arrays = 3, .writes_per_iter = 1},
                            2.0});
  mix.components.push_back({GatherPattern{.table_bytes = 8ull << 20,
                                          .elem_bytes = 8,
                                          .sequential_fraction = 0.1},
                            1.0});
  out.emplace_back("mixture", mix);
  return out;
}

TEST(TraceFormat, RoundTripExactAcrossMagnitudes) {
  std::vector<MemRef> refs;
  std::uint64_t addrs[] = {0,        1,          63,         64,
                           4096,     1ull << 20, 1ull << 40, (1ull << 62),
                           (1ull << 63) - 64};
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto a : addrs) {
      refs.push_back({a + static_cast<std::uint64_t>(rep) * 8, rep % 2 == 1});
    }
  }
  // Descending deltas too (negative deltas exercise zigzag).
  for (int i = 0; i < 11; ++i) {
    refs.push_back({(1ull << 30) - static_cast<std::uint64_t>(i) * 4096,
                    i % 3 == 0});
  }
  const std::string path = tmp_path("roundtrip.fpt");
  write_refs(path, refs, /*chunk_records=*/7);  // forces partial last chunk
  const auto back = read_all(path);
  ASSERT_EQ(back.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(back[i].addr, refs[i].addr) << "record " << i;
    EXPECT_EQ(back[i].write, refs[i].write) << "record " << i;
  }
  std::remove(path.c_str());
}

TEST(TraceFormat, EmptyAndSingleRecordTraces) {
  const std::string path = tmp_path("tiny.fpt");
  write_refs(path, {});
  EXPECT_EQ(io::read_trace_info(path).records, 0u);
  EXPECT_TRUE(read_all(path).empty());

  write_refs(path, {{0xabcd40, true}});
  const auto info = io::read_trace_info(path);
  EXPECT_EQ(info.records, 1u);
  EXPECT_EQ(info.min_addr, 0xabcd40u);
  EXPECT_EQ(info.max_addr, 0xabcd40u);
  EXPECT_EQ(info.touched_lines, 1u);
  EXPECT_EQ(info.working_set_bytes(), 64u);
  const auto back = read_all(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].addr, 0xabcd40u);
  EXPECT_TRUE(back[0].write);
  std::remove(path.c_str());
}

TEST(TraceFormat, DigestIndependentOfChunking) {
  std::vector<MemRef> refs;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    refs.push_back({0x1000 + i * 72, i % 5 == 0});
  }
  const std::string a = tmp_path("chunk_small.fpt");
  const std::string b = tmp_path("chunk_large.fpt");
  write_refs(a, refs, 13);
  write_refs(b, refs, 4096);
  const auto ia = io::read_trace_info(a);
  const auto ib = io::read_trace_info(b);
  EXPECT_EQ(ia.digest, ib.digest);
  EXPECT_EQ(ia.records, ib.records);
  EXPECT_EQ(ia.touched_lines, ib.touched_lines);
  EXPECT_EQ(ia.chunk_records, 13u);
  EXPECT_EQ(ib.chunk_records, 4096u);
  // Different content must change the digest.
  refs[500].write = !refs[500].write;
  write_refs(a, refs, 13);
  EXPECT_NE(io::read_trace_info(a).digest, ia.digest);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(TraceFormat, HeaderTracksFootprint) {
  const std::string path = tmp_path("footprint.fpt");
  // Three distinct lines: 0x0, 0x40, and 0x10000; min/max span them.
  write_refs(path, {{0x8, false}, {0x44, true}, {0x10000, false},
                    {0x10, false}});
  const auto info = io::read_trace_info(path);
  EXPECT_EQ(info.records, 4u);
  EXPECT_EQ(info.min_addr, 0x8u);
  EXPECT_EQ(info.max_addr, 0x10000u);
  EXPECT_EQ(info.touched_lines, 3u);
  std::remove(path.c_str());
}

TEST(TraceFormat, RejectsMissingWrongMagicAndBadVersion) {
  EXPECT_THROW(io::read_trace_info(tmp_path("nonexistent.fpt")),
               io::TraceFormatError);
  EXPECT_THROW(io::FileTraceSource(tmp_path("nonexistent.fpt")),
               io::TraceFormatError);

  const std::string path = tmp_path("corrupt.fpt");
  {
    std::ofstream f(path, std::ios::binary);
    f << "JUNKJUNKJUNKJUNK this is not a trace and is long enough to parse";
  }
  EXPECT_THROW(io::read_trace_info(path), io::TraceFormatError);

  // Valid file with the version field (offset 8) patched to 99.
  write_refs(path, {{0x40, false}, {0x80, true}});
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    const char v99[4] = {99, 0, 0, 0};
    f.write(v99, 4);
  }
  EXPECT_THROW(io::read_trace_info(path), io::TraceFormatError);
  std::remove(path.c_str());
}

TEST(TraceFormat, RejectsTruncatedFiles) {
  const std::string path = tmp_path("trunc.fpt");
  std::vector<MemRef> refs;
  for (std::uint64_t i = 0; i < 300; ++i) refs.push_back({i * 64, false});
  write_refs(path, refs, 100);
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  // Truncation anywhere — inside the header, at a chunk boundary, or
  // mid-payload — must surface as TraceFormatError, never as a silently
  // shorter trace.
  for (const std::size_t keep :
       {std::size_t{10}, io::kTraceHeaderBytes, io::kTraceHeaderBytes + 3,
        bytes.size() / 2, bytes.size() - 1}) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(keep));
    f.close();
    EXPECT_THROW(
        {
          io::TraceReader r(path);
          MemRef block[128];
          while (r.read(block, 128) > 0) {
          }
        },
        io::TraceFormatError)
        << "keep=" << keep;
  }
  std::remove(path.c_str());
}

TEST(TraceFormat, RejectsRecordCountMismatch) {
  const std::string path = tmp_path("count.fpt");
  std::vector<MemRef> refs;
  for (std::uint64_t i = 0; i < 50; ++i) refs.push_back({i * 64, false});
  write_refs(path, refs);
  {
    // Patch the header's record count (offset 16) to promise one more.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    const char n51[8] = {51, 0, 0, 0, 0, 0, 0, 0};
    f.write(n51, 8);
  }
  EXPECT_THROW(read_all(path), io::TraceFormatError);
  std::remove(path.c_str());
}

/// Overwrites the header's chunk_records field (offset 12) of `path`.
void patch_chunk_records(const std::string& path, std::uint32_t v) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(12);
  const char le[4] = {static_cast<char>(v & 0xff),
                      static_cast<char>((v >> 8) & 0xff),
                      static_cast<char>((v >> 16) & 0xff),
                      static_cast<char>((v >> 24) & 0xff)};
  f.write(le, 4);
}

/// Decodes the whole file; the TraceFormatError message if it throws.
std::string decode_error(const std::string& path) {
  try {
    read_all(path);
  } catch (const io::TraceFormatError& e) {
    return e.what();
  }
  return "";
}

// Only the last chunk may be short, so a chunk longer than the header's
// chunk size is corrupt: its count must never size the decode buffer.
TEST(TraceFormat, RejectsChunkLongerThanHeaderChunkSize) {
  const std::string path = tmp_path("long_chunk.fpt");
  std::vector<MemRef> refs;
  for (std::uint64_t i = 0; i < 8; ++i) refs.push_back({i * 64, i == 3});
  write_refs(path, refs, 8);
  patch_chunk_records(path, 4);
  EXPECT_EQ(io::read_trace_info(path).chunk_records, 4u);
  const std::string err = decode_error(path);
  EXPECT_NE(err.find("'" + path + "'"), std::string::npos) << err;
  EXPECT_NE(err.find("chunk of 8 record(s) exceeds the header's chunk "
                     "size 4"),
            std::string::npos)
      << err;
  std::remove(path.c_str());
}

// A header chunk size above 2^20 is refused before any chunk is read,
// even when every chunk is well formed; the writer refuses it too.
TEST(TraceFormat, RejectsHeaderChunkSizeAboveLimit) {
  const std::string path = tmp_path("big_chunk_size.fpt");
  std::vector<MemRef> refs;
  for (std::uint64_t i = 0; i < 100; ++i) refs.push_back({i * 64, false});
  write_refs(path, refs, 16);
  patch_chunk_records(path, io::kTraceMaxChunkRecords + 1);
  EXPECT_THROW(io::read_trace_info(path), io::TraceFormatError);
  const std::string err = decode_error(path);
  EXPECT_NE(err.find("'" + path + "'"), std::string::npos) << err;
  EXPECT_NE(err.find("chunk size 1048577 in header is outside [1, 2^20]"),
            std::string::npos)
      << err;
  // The largest legal chunk size still decodes.
  patch_chunk_records(path, io::kTraceMaxChunkRecords);
  EXPECT_EQ(read_all(path).size(), refs.size());

  const std::string unwritten = tmp_path("never_written.fpt");
  EXPECT_THROW(io::TraceWriter(unwritten, io::kTraceMaxChunkRecords + 1),
               io::TraceFormatError);
  EXPECT_THROW(io::TraceWriter(unwritten, 0), io::TraceFormatError);
  EXPECT_FALSE(std::ifstream(unwritten).good());
  std::remove(path.c_str());
}

// write_trace removes the file when the writing callback throws, and
// leaves a finished file otherwise.
TEST(TraceFormat, WriteTraceRemovesTheFileOnFailure) {
  const std::string path = tmp_path("write_trace.fpt");
  const std::uint64_t digest = io::write_trace(
      path, [](io::TraceWriter& w) { w.append({0x40, true}); });
  EXPECT_EQ(io::read_trace_info(path).digest, digest);
  EXPECT_EQ(read_all(path).size(), 1u);

  std::istringstream text("R 0x40\nW 0x80\nR 0xc0\nbogus\n");
  EXPECT_THROW(io::write_trace(path,
                               [&](io::TraceWriter& w) {
                                 io::convert_text_trace(text, w);
                               }),
               io::TraceFormatError);
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(TraceFormat, WriterRejectsOversizedAddresses) {
  const std::string path = tmp_path("oversize.fpt");
  io::TraceWriter w(path);
  const MemRef bad{1ull << 63, false};
  EXPECT_THROW(w.append(bad), io::TraceFormatError);
  std::remove(path.c_str());
}

TEST(TraceFormat, TextConvertRoundTripAndErrors) {
  std::istringstream text(
      "# comment line\n"
      "R 0x1000\n"
      "\n"
      "W 4096\n"
      "R 0xffffffffff\n");
  const std::string path = tmp_path("text.fpt");
  io::TraceWriter w(path);
  EXPECT_EQ(io::convert_text_trace(text, w), 3u);
  w.finish();
  const auto back = read_all(path);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].addr, 0x1000u);
  EXPECT_FALSE(back[0].write);
  EXPECT_EQ(back[1].addr, 4096u);
  EXPECT_TRUE(back[1].write);
  EXPECT_EQ(back[2].addr, 0xffffffffffull);

  // Dump emits the canonical text form; converting that back with the
  // same chunking yields a byte-identical binary.
  std::ostringstream dumped;
  {
    io::TraceReader r(path);
    EXPECT_EQ(io::dump_trace_text(r, dumped), 3u);
  }
  std::istringstream again(dumped.str());
  const std::string path2 = tmp_path("text2.fpt");
  io::TraceWriter w2(path2);
  io::convert_text_trace(again, w2);
  w2.finish();
  std::ifstream fa(path, std::ios::binary), fb(path2, std::ios::binary);
  std::ostringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());

  for (const char* bad : {"X 0x1000\n", "R\n", "R -5\n", "R 0x1000 junk\n"}) {
    std::istringstream badin(bad);
    io::TraceWriter wb(tmp_path("bad.fpt"));
    EXPECT_THROW(io::convert_text_trace(badin, wb), io::TraceFormatError)
        << "input: " << bad;
  }
  std::remove(path.c_str());
  std::remove(path2.c_str());
  std::remove(tmp_path("bad.fpt").c_str());
}

// The tentpole property: recording a synthetic pattern and replaying the
// file reproduces the scalar synthetic replay's statistics exactly — for
// every pattern class, on every Table I machine, with refs deliberately
// not a multiple of the chunk size.
TEST(RecordReplay, FileReplayMatchesSyntheticScalarEverywhere) {
  constexpr std::uint64_t kRefs = 30011;  // prime: never chunk-aligned
  constexpr std::uint64_t kWarmup = kRefs;
  constexpr unsigned kShift = 8;
  constexpr std::uint64_t kSeed = 0xfeed1234;
  const auto machines = arch::all_machines();
  for (const auto& [name, spec] : pattern_suite()) {
    const AccessPatternSpec scaled = scale_spec(spec, kShift);
    const std::string path = tmp_path("prop_" + name + ".fpt");
    record_spec(path, scaled, kSeed, kWarmup + kRefs);
    for (const auto& cpu : machines) {
      Hierarchy hs(cpu, kShift);
      TraceGenerator gen(scaled, kSeed);
      const auto want = hs.replay_scalar(gen, kRefs, kWarmup);

      Hierarchy hf(cpu, kShift);
      io::FileTraceSource src(path);
      const auto got = hf.replay(src, kRefs, kWarmup);
      EXPECT_TRUE(identical(want, got))
          << name << " on " << cpu.short_name;
    }
    std::remove(path.c_str());
  }
}

TEST(RecordReplay, FiniteSourceRunsDryAndReportsMeasuredRefs) {
  const std::string path = tmp_path("short.fpt");
  std::vector<MemRef> refs;
  for (std::uint64_t i = 0; i < 1000; ++i) refs.push_back({i * 64, false});
  write_refs(path, refs);
  const auto cpu = arch::knl();

  Hierarchy h(cpu, 8);
  io::FileTraceSource src(path);
  const auto res = h.replay(src, /*refs=*/5000, /*warmup=*/100);
  EXPECT_EQ(res.refs, 900u);  // 1000 on disk minus 100 warmup

  Hierarchy h2(cpu, 8);
  io::FileTraceSource src2(path);
  const auto drained = h2.replay(src2, 5000, /*warmup=*/1000);
  EXPECT_EQ(drained.refs, 0u);  // warmup consumed the whole file
  std::remove(path.c_str());
}

TEST(TraceCache, TraceKeyDiscriminatesAndNeverAliasesPatternKeys) {
  const auto knl = arch::knl();
  const auto bdw = arch::bdw();
  const std::string base = SimCache::trace_key(knl, 0x1234, 1000, 100, 8);
  EXPECT_EQ(base, SimCache::trace_key(knl, 0x1234, 1000, 100, 8));
  EXPECT_NE(base, SimCache::trace_key(knl, 0x1235, 1000, 100, 8));
  EXPECT_NE(base, SimCache::trace_key(knl, 0x1234, 1001, 100, 8));
  EXPECT_NE(base, SimCache::trace_key(knl, 0x1234, 1000, 101, 8));
  EXPECT_NE(base, SimCache::trace_key(knl, 0x1234, 1000, 100, 9));
  EXPECT_NE(base, SimCache::trace_key(bdw, 0x1234, 1000, 100, 8));
  // A trace key can never collide with any synthetic pattern key.
  const auto spec = AccessPatternSpec::single(
      StreamPattern{.bytes_per_array = 1 << 20, .arrays = 3,
                    .writes_per_iter = 1});
  EXPECT_NE(base, SimCache::key(knl, spec, 1000, 0x1234, 8));
}

TEST(TraceCache, CachedFileReplayIsBitIdenticalAndMemoized) {
  constexpr std::uint64_t kRefs = 10007;
  constexpr unsigned kShift = 8;
  const auto cpu = arch::knm();
  const AccessPatternSpec scaled =
      scale_spec(pattern_suite()[0].second, kShift);
  const std::string path = tmp_path("cached.fpt");
  record_spec(path, scaled, 0xfeed1234, 2 * kRefs);

  const auto plain =
      io::replay_trace_cached(nullptr, cpu, path, kRefs, kRefs, kShift);
  SimCache cache;
  const auto first =
      io::replay_trace_cached(&cache, cpu, path, kRefs, kRefs, kShift);
  const auto second =
      io::replay_trace_cached(&cache, cpu, path, kRefs, kRefs, kShift);
  // Asking for more refs than the file holds resolves to the available
  // count before keying, so the over-ask shares the cache entry.
  const auto overask =
      io::replay_trace_cached(&cache, cpu, path, 1ull << 40, kRefs, kShift);
  EXPECT_TRUE(identical(plain, first));
  EXPECT_TRUE(identical(plain, second));
  EXPECT_TRUE(identical(plain, overask));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fpr::memsim
