// Memory-hierarchy replay throughput across the implementations of the
// same simulation, over every pattern class of the paper's Table II
// taxonomy plus a representative mixture, on every Table I machine (so
// each block walker the machines build, BDW's 20-way LLC included, is
// checked against the seed replica):
//
//  - baseline: a verbatim replica of the pre-batching implementation
//    (array-of-struct ways, early-exit scan, hardware divide per set
//    lookup) driven one reference at a time — the scalar baseline the
//    speedup is quoted against;
//  - scalar:   TraceGenerator::next + the new compact Cache, still one
//    reference and one full level walk at a time (Hierarchy's oracle
//    path, isolates the cache-layout share of the win);
//  - batched:  the production path — TraceGenerator::fill blocks and
//    Cache::access_many level filtering through each level's block
//    walker;
//  - file:     the same replay fed from an fpr-trace v1 file
//    (FileTraceSource: chunked varint decode instead of generation),
//    measuring the external-trace ingestion path `fpr trace` uses.
//
// A companion per-stage roofline breaks the production path down
// further: refs/second through the generator and each cache level
// separately.
//
// Every path — including the staged breakdown — must produce EXACTLY
// the same per-level statistics. Exits non-zero on any mismatch or if
// the aggregate production-vs-baseline speedup falls below 1x, and
// with code 2 on a malformed option.
//
//   ./build/memsim_replay [--refs N] [--scale-shift S] [--no-perf-gate]
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include <cstdio>

#include "arch/machines.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "io/trace_replay.hpp"
#include "memsim/cache.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/trace_gen.hpp"
#include "memsim/trace_source.hpp"

namespace {

using namespace fpr;
using namespace fpr::memsim;

struct Workload {
  std::string name;
  AccessPatternSpec spec;
};

/// Replica of the seed Cache::access (pre-compaction): one Way struct
/// per line, valid/tag/lru triple-branch scan with early exit, modulo
/// set indexing via hardware divide. Semantically identical by design —
/// the bench asserts it.
class BaselineCache {
 public:
  explicit BaselineCache(const CacheConfig& cfg) : cfg_(cfg) {
    num_sets_ = cfg_.num_sets();
    line_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.line_bytes));
    ways_.resize(cfg_.num_lines());
  }

  bool access(std::uint64_t addr, bool write) {
    const std::uint64_t line = addr >> line_shift_;
    const std::uint64_t set = line % num_sets_;
    const std::uint64_t tag = line / num_sets_;
    Way* base = &ways_[set * cfg_.associativity];
    ++stamp_;
    Way* victim = base;
    for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        way.lru = stamp_;
        way.dirty = way.dirty || write;
        ++stats_.hits;
        return true;
      }
      if (!way.valid) {
        victim = &way;
      } else if (victim->valid && way.lru < victim->lru) {
        victim = &way;
      }
    }
    ++stats_.misses;
    if (victim->valid && victim->dirty) ++stats_.writebacks;
    victim->valid = true;
    victim->tag = tag;
    victim->lru = stamp_;
    victim->dirty = write;
    return false;
  }

  void reset_stats() { stats_ = CacheStats{}; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };
  CacheConfig cfg_;
  std::uint64_t num_sets_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint64_t stamp_ = 0;
  std::vector<Way> ways_;
  CacheStats stats_;
};

/// The seed replay loop over BaselineCache levels, mirroring the
/// geometry Hierarchy builds for `cpu`.
HierarchyResult baseline_replay(const fpr::arch::CpuSpec& cpu,
                                unsigned scale_shift, TraceGenerator& gen,
                                std::uint64_t refs, std::uint64_t warmup) {
  // Recover the per-level configs through a real Hierarchy replay of 0
  // refs (names + geometry), then rebuild baseline caches from them.
  Hierarchy h(cpu, scale_shift);
  std::vector<BaselineCache> levels;
  for (std::size_t i = 0; i < h.num_levels(); ++i) {
    levels.emplace_back(h.level_config(i));
  }
  auto run = [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const MemRef ref = gen.next();
      for (auto& level : levels) {
        if (level.access(ref.addr, ref.write)) break;
      }
    }
  };
  run(warmup);
  for (auto& l : levels) l.reset_stats();
  run(refs);
  HierarchyResult r;
  r.refs = refs;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    r.levels.push_back({h.level_name(i), levels[i].stats()});
  }
  return r;
}

/// Wall seconds and input-reference counts per pipeline stage: the
/// generator plus each cache level (a level's inputs are the previous
/// level's misses, so counts shrink down the hierarchy).
struct StageTiming {
  double gen_s = 0.0;
  std::uint64_t gen_refs = 0;
  std::vector<double> level_s;
  std::vector<std::uint64_t> level_refs;
};

/// The production block loop of Hierarchy::replay, re-driven from
/// outside with a timer around each stage. Timers stay out of
/// src/memsim (determinism lint), so the bench walks the levels itself
/// through Hierarchy::level_cache; the per-cache access sequences — and
/// therefore the stats — are identical to replay().
HierarchyResult staged_replay(Hierarchy& h, TraceGenerator& gen,
                              std::uint64_t refs, std::uint64_t warmup,
                              StageTiming& st) {
  const std::size_t num_levels = h.num_levels();
  st.gen_s = 0.0;
  st.gen_refs = 0;
  st.level_s.assign(num_levels, 0.0);
  st.level_refs.assign(num_levels, 0);
  std::vector<MemRef> block(1024);
  auto run = [&](std::uint64_t count) {
    while (count > 0) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(count, block.size()));
      WallTimer tg;
      gen.fill(block.data(), n);
      st.gen_s += tg.seconds();
      st.gen_refs += n;
      std::size_t live = n;
      for (std::size_t i = 0; i < num_levels && live > 0; ++i) {
        WallTimer tl;
        const std::size_t next = h.level_cache(i).access_many(block.data(),
                                                              live);
        st.level_s[i] += tl.seconds();
        st.level_refs[i] += live;
        live = next;
      }
      count -= n;
    }
  };
  for (std::size_t i = 0; i < num_levels; ++i) h.level_cache(i).clear();
  run(warmup);
  for (std::size_t i = 0; i < num_levels; ++i) h.level_cache(i).reset_stats();
  run(refs);
  HierarchyResult r;
  r.refs = refs;
  for (std::size_t i = 0; i < num_levels; ++i) {
    r.levels.push_back({h.level_name(i), h.level_cache(i).stats()});
  }
  return r;
}

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  w.push_back({"stream", AccessPatternSpec::single(StreamPattern{
                             .bytes_per_array = 512ull << 20,
                             .arrays = 3,
                             .writes_per_iter = 1})});
  w.push_back({"strided", AccessPatternSpec::single(StridedPattern{
                              .footprint_bytes = 256ull << 20,
                              .stride_bytes = 256})});
  w.push_back({"stencil", AccessPatternSpec::single(StencilPattern{
                              .nx = 512, .ny = 512, .nz = 256,
                              .elem_bytes = 8, .radius = 1,
                              .full_box = false})});
  w.push_back({"gather", AccessPatternSpec::single(GatherPattern{
                             .table_bytes = 1ull << 30,
                             .elem_bytes = 8,
                             .sequential_fraction = 0.1})});
  w.push_back({"chase", AccessPatternSpec::single(ChasePattern{
                            .footprint_bytes = 64ull << 20,
                            .node_bytes = 64})});
  w.push_back({"blocked", AccessPatternSpec::single(BlockedPattern{
                              .matrix_bytes = 1ull << 30,
                              .tile_bytes = 8ull << 20,
                              .tile_reuse = 16.0})});
  AccessPatternSpec mix;
  mix.components.push_back({StreamPattern{.bytes_per_array = 128ull << 20,
                                          .arrays = 3,
                                          .writes_per_iter = 1},
                            2.0});
  mix.components.push_back({GatherPattern{.table_bytes = 512ull << 20,
                                          .elem_bytes = 8,
                                          .sequential_fraction = 0.1},
                            1.0});
  mix.components.push_back({ChasePattern{.footprint_bytes = 32ull << 20,
                                         .node_bytes = 64},
                            0.5});
  w.push_back({"mixture", mix});
  return w;
}

bool identical(const HierarchyResult& a, const HierarchyResult& b) {
  if (a.refs != b.refs || a.levels.size() != b.levels.size()) return false;
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    const auto& la = a.levels[i];
    const auto& lb = b.levels[i];
    if (la.name != lb.name || la.stats.hits != lb.stats.hits ||
        la.stats.misses != lb.stats.misses ||
        la.stats.writebacks != lb.stats.writebacks) {
      return false;
    }
  }
  return true;
}

/// Seconds each implementation spent, summed over patterns.
struct Totals {
  double baseline = 0.0;
  double scalar = 0.0;
  double batched = 0.0;
};

/// Times every implementation on every pattern through `cpu`'s
/// hierarchy and prints the machine's throughput and per-stage tables.
/// Returns false unless every path produced identical statistics.
bool replay_machine(const arch::CpuSpec& cpu, std::uint64_t refs,
                    unsigned scale_shift, Totals& totals) {
  std::cout << "machine: " << cpu.short_name << ", refs=" << refs
            << " (+equal warmup), scale-shift=" << scale_shift << "\n\n";

  TextTable table({"Pattern", "Baseline[Mref/s]", "Scalar[Mref/s]",
                   "Batched[Mref/s]", "File[Mref/s]", "Speedup",
                   "Identical"});
  std::vector<std::string> stage_cols = {"Pattern", "Gen[Mref/s]"};
  {
    const Hierarchy probe(cpu, scale_shift);
    for (std::size_t i = 0; i < probe.num_levels(); ++i) {
      stage_cols.push_back(probe.level_name(i) + "[Mref/s]");
    }
  }
  TextTable stage_table(stage_cols);

  bool all_identical = true;
  for (const auto& w : workloads()) {
    const AccessPatternSpec scaled = scale_spec(w.spec, scale_shift);

    TraceGenerator g0(scaled, 0xfeed1234);
    WallTimer t0;
    const auto r0 = baseline_replay(cpu, scale_shift, g0, refs, refs);
    const double baseline_s = t0.seconds();

    Hierarchy hs(cpu, scale_shift);
    TraceGenerator gs(scaled, 0xfeed1234);
    WallTimer ts;
    const auto rs = hs.replay_scalar(gs, refs, refs);
    const double scalar_s = ts.seconds();

    Hierarchy hb(cpu, scale_shift);
    TraceGenerator gb(scaled, 0xfeed1234);
    WallTimer tb;
    const auto rb = hb.replay(gb, refs, refs);
    const double batched_s = tb.seconds();

    // Per-stage roofline over the production path.
    Hierarchy hstage(cpu, scale_shift);
    TraceGenerator gstage(scaled, 0xfeed1234);
    StageTiming st;
    const auto rstage = staged_replay(hstage, gstage, refs, refs, st);

    // File-backed replay: record the identical reference stream to an
    // fpr-trace file, then time FileTraceSource (decode + replay; the
    // recording itself stays outside the timer).
    const char* trace_path = "memsim_replay_bench.fpt";
    io::record_trace(trace_path, scaled, 0xfeed1234, 2 * refs);
    Hierarchy hf(cpu, scale_shift);
    WallTimer tf;
    HierarchyResult rf;
    {
      io::FileTraceSource fsrc(trace_path);
      rf = hf.replay(fsrc, refs, refs);
    }
    const double file_s = tf.seconds();
    std::remove(trace_path);

    const bool same = identical(r0, rb) && identical(rs, rb) &&
                      identical(rstage, rb) && identical(rf, rb);
    all_identical = all_identical && same;
    totals.baseline += baseline_s;
    totals.scalar += scalar_s;
    totals.batched += batched_s;
    const double mref = static_cast<double>(2 * refs) / 1e6;  // warmup counts
    table.row()
        .cell(w.name)
        .num(baseline_s > 0 ? mref / baseline_s : 0.0, 2)
        .num(scalar_s > 0 ? mref / scalar_s : 0.0, 2)
        .num(batched_s > 0 ? mref / batched_s : 0.0, 2)
        .num(file_s > 0 ? mref / file_s : 0.0, 2)
        .num(batched_s > 0 ? baseline_s / batched_s : 0.0, 2)
        .cell(same ? "yes" : "NO")
        .done();

    auto row = stage_table.row();
    row.cell(w.name);
    row.num(st.gen_s > 0
                ? static_cast<double>(st.gen_refs) / 1e6 / st.gen_s
                : 0.0,
            2);
    for (std::size_t i = 0; i < st.level_s.size(); ++i) {
      row.num(st.level_s[i] > 0 ? static_cast<double>(st.level_refs[i]) /
                                      1e6 / st.level_s[i]
                                : 0.0,
              2);
    }
    row.done();
  }
  table.print(std::cout);
  std::cout << "\nper-stage roofline (production path; each level's refs "
               "are the previous level's misses):\n";
  stage_table.print(std::cout);
  std::cout << "\n";
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t refs = 2'000'000;
  unsigned scale_shift = 8;
  // --no-perf-gate: keep the stats-identity checks but skip the
  // "production must beat the seed baseline" exit condition. Sanitizer
  // CI runs use this — instrumentation skews relative timings, and at
  // the tiny sizes those jobs use the speedup is noise, not signal.
  bool perf_gate = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--refs") {
      refs = bench::parse_count(arg, bench::option_value(argc, argv, i));
    } else if (arg == "--scale-shift") {
      scale_shift = static_cast<unsigned>(
          bench::parse_count(arg, bench::option_value(argc, argv, i), 0, 30));
    } else if (arg == "--no-perf-gate") {
      perf_gate = false;
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return 2;
    }
  }

  std::cout << "Memory-hierarchy replay throughput (scalar/batched; the "
               "Sec. III-A PCM-profiling stage)\n\n";
  Totals totals;
  bool all_identical = true;
  for (const auto& cpu : arch::all_machines()) {
    all_identical = replay_machine(cpu, refs, scale_shift, totals) &&
                    all_identical;
  }

  const double speedup =
      totals.batched > 0 ? totals.baseline / totals.batched : 0.0;
  std::printf(
      "aggregate over all machines: baseline %.3f s, scalar %.3f s, "
      "batched %.3f s, speedup %.2fx (production vs baseline)\n",
      totals.baseline, totals.scalar, totals.batched, speedup);

  if (!all_identical) {
    std::cerr << "[bench] REPLAY MISMATCH: every path (baseline, scalar, "
                 "batched, staged, file) must produce identical per-level "
                 "statistics\n";
    return 1;
  }
  if (perf_gate && speedup < 1.0) {
    std::cerr << "[bench] production path slower than the seed baseline\n";
    return 1;
  }
  return 0;
}
