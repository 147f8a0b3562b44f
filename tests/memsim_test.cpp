// Unit tests for the cache/memory simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arch/machines.hpp"
#include "arch/variant.hpp"
#include "common/magic_div.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "memsim/bandwidth.hpp"
#include "memsim/cache.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/sim_cache.hpp"
#include "memsim/trace_gen.hpp"
#include "memsim/trace_source.hpp"

namespace fpr::memsim {
namespace {

TEST(CacheConfig, GeometryMath) {
  CacheConfig cfg{.size_bytes = 32 * 1024, .line_bytes = 64,
                  .associativity = 8};
  cfg.validate();
  EXPECT_EQ(cfg.num_lines(), 512u);
  EXPECT_EQ(cfg.num_sets(), 64u);
}

TEST(CacheConfig, RejectsBadGeometry) {
  CacheConfig cfg{.size_bytes = 1000, .line_bytes = 64, .associativity = 8};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {.size_bytes = 32 * 1024, .line_bytes = 48, .associativity = 8};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // One-byte lines would let a tag reach the invalid-way sentinel.
  cfg = {.size_bytes = 8, .line_bytes = 1, .associativity = 8};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // Non-power-of-two set counts are allowed (modulo indexing).
  cfg = {.size_bytes = 3 * 64 * 8, .line_bytes = 64, .associativity = 8};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Cache, HitsAfterMiss) {
  Cache c({.size_bytes = 4096, .line_bytes = 64, .associativity = 4});
  EXPECT_FALSE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x1010, false));  // same line
  EXPECT_FALSE(c.access(0x2000, false));
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction) {
  // 1 set x 2 ways: lines 0 and 1 fit, line 2 evicts the LRU (line 0).
  Cache c({.size_bytes = 128, .line_bytes = 64, .associativity = 2});
  c.access(0 * 64, false);
  c.access(1 * 64 * 1, false);  // same set? with 1 set, every line maps there
  c.access(2 * 64, false);      // evicts line 0
  EXPECT_FALSE(c.access(0 * 64, false));  // line 0 gone
  EXPECT_TRUE(c.access(2 * 64, false));   // line 2 still resident
}

TEST(Cache, LruTouchPreventsEviction) {
  Cache c({.size_bytes = 128, .line_bytes = 64, .associativity = 2});
  c.access(0, false);
  c.access(64, false);
  c.access(0, false);    // touch line 0: line 64 becomes LRU
  c.access(128, false);  // evicts line 64
  EXPECT_TRUE(c.access(0, false));
  EXPECT_FALSE(c.access(64, false));
}

TEST(Cache, WritebackOnDirtyEviction) {
  Cache c({.size_bytes = 128, .line_bytes = 64, .associativity = 2});
  c.access(0, true);     // dirty
  c.access(64, false);
  c.access(128, false);  // evicts dirty line 0
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, ClearResets) {
  Cache c({.size_bytes = 4096, .line_bytes = 64, .associativity = 4});
  c.access(0, true);
  c.clear();
  EXPECT_EQ(c.stats().accesses(), 0u);
  EXPECT_FALSE(c.access(0, false));  // cold again
}

TEST(Cache, StreamingHitRateIsSevenEighths) {
  // Sequential 8B accesses: 1 miss per 64B line = 7/8 hit rate.
  Cache c({.size_bytes = 64 * 1024, .line_bytes = 64, .associativity = 8});
  for (std::uint64_t a = 0; a < 32 * 1024; a += 8) c.access(a, false);
  EXPECT_NEAR(c.stats().hit_rate(), 7.0 / 8.0, 0.01);
}

TEST(TraceGen, StreamPatternIsSequentialPerArray) {
  AccessPatternSpec spec = AccessPatternSpec::single(
      StreamPattern{.bytes_per_array = 1 << 20, .arrays = 1,
                    .writes_per_iter = 0});
  TraceGenerator gen(spec, 1);
  std::uint64_t prev = gen.next().addr;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t a = gen.next().addr;
    EXPECT_EQ(a, prev + 8);
    prev = a;
  }
}

TEST(TraceGen, ChaseVisitsAllNodes) {
  AccessPatternSpec spec = AccessPatternSpec::single(
      ChasePattern{.footprint_bytes = 64 * 64, .node_bytes = 64});
  TraceGenerator gen(spec, 2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(gen.next().addr);
  // Sattolo cycle: all 64 nodes visited exactly once per period.
  EXPECT_EQ(seen.size(), 64u);
}

TEST(TraceGen, MixtureUsesDistinctRanges) {
  AccessPatternSpec spec;
  spec.components.push_back(
      {StreamPattern{.bytes_per_array = 4096, .arrays = 1}, 1.0});
  spec.components.push_back(
      {GatherPattern{.table_bytes = 4096, .elem_bytes = 8}, 1.0});
  TraceGenerator gen(spec, 3);
  std::set<std::uint64_t> bases;
  for (int i = 0; i < 1000; ++i) bases.insert(gen.next().addr >> 40);
  EXPECT_GE(bases.size(), 2u);  // distinct 2^40 component windows
}

TEST(TraceGen, RejectsEmptyAndBadWeights) {
  EXPECT_THROW(TraceGenerator(AccessPatternSpec{}, 1), std::invalid_argument);
  AccessPatternSpec bad;
  bad.components.push_back({StreamPattern{}, -1.0});
  EXPECT_THROW(TraceGenerator(bad, 1), std::invalid_argument);
}

TEST(TraceGen, PatternNames) {
  EXPECT_EQ(pattern_name(StreamPattern{}), "stream");
  EXPECT_EQ(pattern_name(StencilPattern{}), "stencil");
  EXPECT_EQ(pattern_name(GatherPattern{}), "gather");
  EXPECT_EQ(pattern_name(ChasePattern{}), "chase");
  EXPECT_EQ(pattern_name(BlockedPattern{}), "blocked");
  EXPECT_EQ(pattern_name(StridedPattern{}), "strided");
}

TEST(Hierarchy, LevelsForPhiAndBdw) {
  Hierarchy phi(arch::knl(), 6);
  EXPECT_EQ(phi.num_levels(), 3u);
  EXPECT_EQ(phi.level_name(2), "MCDRAM$");
  Hierarchy xeon(arch::bdw(), 6);
  EXPECT_EQ(xeon.num_levels(), 3u);
  EXPECT_EQ(xeon.level_name(2), "LLC");
}

TEST(Hierarchy, SmallWorkingSetHitsHigh) {
  // A stream fitting easily in the (scaled) caches: high combined hit.
  AccessPatternSpec spec = AccessPatternSpec::single(
      StreamPattern{.bytes_per_array = 32 * 1024, .arrays = 1});
  const auto res = simulate_pattern(arch::knl(), spec, 200000, 7, 6);
  EXPECT_GT(res.served_at_or_above("L2"), 0.95);
}

TEST(Hierarchy, HugeGatherMissesMcdram) {
  // Random gather over a table far beyond MCDRAM: most refs go to DRAM.
  AccessPatternSpec spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 200ull << 30, .elem_bytes = 8,
                    .sequential_fraction = 0.0});
  const auto res = simulate_pattern(arch::knl(), spec, 150000);
  EXPECT_GT(res.dram_fraction(), 0.5);
}

TEST(Bandwidth, BdwIsJustDram) {
  const auto bw = effective_bandwidth(arch::bdw(), 1 << 30, 0.0);
  EXPECT_DOUBLE_EQ(bw.effective_gbs, arch::bdw().dram_bw_gbs);
}

TEST(Bandwidth, FullCaptureGivesCacheModeCeiling) {
  // Paper Sec. IV-C: 86% of flat-mode Triad on KNL when vectors fit.
  const auto bw = effective_bandwidth(arch::knl(), 6ull << 30, 1.0);
  EXPECT_NEAR(bw.effective_gbs, 439.0 * 0.86, 1.0);
  const auto knm = effective_bandwidth(arch::knm(), 6ull << 30, 1.0);
  EXPECT_NEAR(knm.effective_gbs, 430.0 * 0.75, 1.0);
}

TEST(Bandwidth, OversizeWorkingSetDropsTowardDram) {
  // 42 GiB of stream against 16 GiB MCDRAM: the capacity guard clamps
  // the capture to 16/42, and the prefetched misses stream at the flat
  // DDR rate — near-DRAM throughput ("slightly higher than DRAM", paper
  // Fig. 4 BABL14).
  const auto bw = effective_bandwidth(arch::knl(), 42ull << 30, 1.0);
  EXPECT_NEAR(bw.mcdram_fraction, 16.0 / 42.0, 1e-9);
  EXPECT_GE(bw.effective_gbs, arch::knl().dram_bw_gbs);
  EXPECT_LT(bw.effective_gbs, 200.0);
}

TEST(Bandwidth, LowCaptureNonStreamingDropsBelowDram) {
  // The regression behind the old never-below-DRAM floor: a spilled
  // *gather* working set pays the cache-mode miss_overhead and must
  // model below flat DRAM speed (the Fig. 4 cache-mode ladder), which
  // the blanket prefetcher floor used to cancel.
  const CacheModeParams params;
  const auto bw =
      effective_bandwidth(arch::knl(), 32ull << 30, 0.1, /*streaming=*/0.0);
  EXPECT_LT(bw.effective_gbs, arch::knl().dram_bw_gbs);
  // Capture 0 with no prefetchable misses is the worst case:
  // dram_bw / miss_overhead exactly.
  const auto worst =
      effective_bandwidth(arch::knl(), 32ull << 30, 0.0, /*streaming=*/0.0);
  EXPECT_NEAR(worst.effective_gbs,
              arch::knl().dram_bw_gbs / params.miss_overhead, 1e-9);
}

TEST(Bandwidth, StreamingShareInterpolatesMissCost) {
  // At capture 0 the miss cost interpolates linearly (in time-per-byte)
  // between the prefetched flat-DDR rate (s=1) and the full
  // read-for-ownership overhead (s=0).
  const CacheModeParams params;
  const auto half =
      effective_bandwidth(arch::knl(), 32ull << 30, 0.0, /*streaming=*/0.5);
  const double expect =
      arch::knl().dram_bw_gbs / (0.5 + 0.5 * params.miss_overhead);
  EXPECT_NEAR(half.effective_gbs, expect, 1e-9);
  const auto full =
      effective_bandwidth(arch::knl(), 32ull << 30, 0.0, /*streaming=*/1.0);
  EXPECT_NEAR(full.effective_gbs, arch::knl().dram_bw_gbs, 1e-9);
}

TEST(Bandwidth, CaptureLimitsAndClamping) {
  // capture=1 with a fitting set: the cache-mode ceiling (hit efficiency
  // times flat-mode Triad); KNM selects its own, lower hit efficiency.
  const CacheModeParams params;
  const auto knl1 = effective_bandwidth(arch::knl(), 6ull << 30, 1.0);
  EXPECT_NEAR(knl1.effective_gbs, 439.0 * params.hit_efficiency_knl, 1e-9);
  EXPECT_NEAR(knl1.mcdram_fraction, 1.0, 1e-12);
  const auto knm1 = effective_bandwidth(arch::knm(), 6ull << 30, 1.0);
  EXPECT_NEAR(knm1.effective_gbs, 430.0 * params.hit_efficiency_knm, 1e-9);
  // Out-of-range captures clamp instead of extrapolating.
  const auto over = effective_bandwidth(arch::knl(), 6ull << 30, 1.5);
  EXPECT_NEAR(over.effective_gbs, knl1.effective_gbs, 1e-12);
  const auto under = effective_bandwidth(arch::knl(), 6ull << 30, -0.5);
  EXPECT_NEAR(under.mcdram_fraction, 0.0, 1e-12);
  EXPECT_NEAR(under.effective_gbs, arch::knl().dram_bw_gbs, 1e-9);
}

TEST(Bandwidth, DerivedVariantsInheritHitEfficiency) {
  // The hit efficiency rides on the CpuSpec, not on a name match: a
  // derived KNM variant (short name "KNM+...") must keep KNM's 75%
  // cache-mode efficiency instead of silently picking up KNL's 86% —
  // a time-neutral transform like tdp= must leave the bandwidth model
  // bit-identical.
  const auto v = arch::derive_variant(arch::knm(), "tdp=0.85");
  const auto base = effective_bandwidth(arch::knm(), 6ull << 30, 0.7);
  const auto var = effective_bandwidth(v.cpu, 6ull << 30, 0.7);
  EXPECT_DOUBLE_EQ(var.effective_gbs, base.effective_gbs);
  EXPECT_DOUBLE_EQ(var.mcdram_gbs, base.mcdram_gbs);
}

TEST(Bandwidth, NonMcdramMachinePassesThrough) {
  // BDW has no MCDRAM: capture and streaming shares are irrelevant.
  for (const double c : {0.0, 0.5, 1.0}) {
    const auto bw = effective_bandwidth(arch::bdw(), 1ull << 30, c, 0.0);
    EXPECT_DOUBLE_EQ(bw.effective_gbs, arch::bdw().dram_bw_gbs);
    EXPECT_DOUBLE_EQ(bw.mcdram_fraction, 0.0);
    EXPECT_DOUBLE_EQ(bw.mcdram_gbs, 0.0);
  }
}

TEST(Bandwidth, MonotonicInCapture) {
  double prev = 0.0;
  for (double c = 0.0; c <= 1.0; c += 0.1) {
    const auto bw = effective_bandwidth(arch::knl(), 4ull << 30, c);
    EXPECT_GE(bw.effective_gbs, prev - 1e-9);
    prev = bw.effective_gbs;
  }
}

TEST(Bandwidth, MissStreamingFractionOfMixes) {
  AccessPatternSpec stream = AccessPatternSpec::single(
      StreamPattern{.bytes_per_array = 1 << 20, .arrays = 3});
  EXPECT_DOUBLE_EQ(miss_streaming_fraction(stream), 1.0);
  AccessPatternSpec chase = AccessPatternSpec::single(
      ChasePattern{.footprint_bytes = 1 << 20, .node_bytes = 64});
  EXPECT_DOUBLE_EQ(miss_streaming_fraction(chase), 0.0);
  AccessPatternSpec gather = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 1 << 20, .elem_bytes = 8,
                    .sequential_fraction = 0.3});
  EXPECT_DOUBLE_EQ(miss_streaming_fraction(gather), 0.3);
  AccessPatternSpec mix;
  mix.components.push_back(
      {StreamPattern{.bytes_per_array = 1 << 20}, 1.0});
  mix.components.push_back(
      {ChasePattern{.footprint_bytes = 1 << 20, .node_bytes = 64}, 3.0});
  EXPECT_NEAR(miss_streaming_fraction(mix), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(miss_streaming_fraction(AccessPatternSpec{}), 1.0);
}

TEST(Latency, CacheModeMissCostsMore) {
  // 2 GiB working set: fits the 16 GiB MCDRAM, capacity guard inactive.
  const std::uint64_t ws = 2ull << 30;
  const double hit = effective_latency_ns(arch::knl(), ws, 1.0);
  const double miss = effective_latency_ns(arch::knl(), ws, 0.0);
  EXPECT_GT(miss, hit);
  EXPECT_DOUBLE_EQ(effective_latency_ns(arch::bdw(), ws, 0.5),
                   arch::bdw().dram_latency_ns);
}

TEST(Latency, CaptureLimitsAndClamping) {
  const auto knl = arch::knl();
  const std::uint64_t ws = 2ull << 30;  // fits MCDRAM
  const double probe = CacheModeParams{}.miss_latency_probe;
  // capture=1: pure MCDRAM latency. capture=0: tag probe + DDR access.
  EXPECT_DOUBLE_EQ(effective_latency_ns(knl, ws, 1.0),
                   knl.mcdram_latency_ns);
  EXPECT_DOUBLE_EQ(effective_latency_ns(knl, ws, 0.0),
                   knl.mcdram_latency_ns * probe + knl.dram_latency_ns);
  // Out-of-range captures clamp to the limits.
  EXPECT_DOUBLE_EQ(effective_latency_ns(knl, ws, 2.0),
                   effective_latency_ns(knl, ws, 1.0));
  EXPECT_DOUBLE_EQ(effective_latency_ns(knl, ws, -1.0),
                   effective_latency_ns(knl, ws, 0.0));
}

TEST(Latency, OverCapacityWorkingSetRaisesLatency) {
  // Regression (PR 7): effective_latency_ns used to skip the MCDRAM
  // capacity guard effective_bandwidth applies, so a working set that
  // spilled the MCDRAM got clamped bandwidth but full-capture latency.
  const auto knl = arch::knl();
  const std::uint64_t fits = 2ull << 30;
  const std::uint64_t spills = 42ull << 30;  // 42 GiB vs 16 GiB MCDRAM
  const double l_fits = effective_latency_ns(knl, fits, 1.0);
  const double l_spills = effective_latency_ns(knl, spills, 1.0);
  EXPECT_DOUBLE_EQ(l_fits, knl.mcdram_latency_ns);
  EXPECT_GT(l_spills, l_fits);
  // The clamp is exactly effective_bandwidth's: capture <= capacity/ws.
  const double c =
      knl.mcdram_gib * 1024.0 * 1024.0 * 1024.0 / static_cast<double>(spills);
  const double probe = CacheModeParams{}.miss_latency_probe;
  EXPECT_DOUBLE_EQ(l_spills,
                   c * knl.mcdram_latency_ns +
                       (1.0 - c) * (knl.mcdram_latency_ns * probe +
                                    knl.dram_latency_ns));
  // A working set at exactly capacity is not penalized.
  const auto cap = static_cast<std::uint64_t>(knl.mcdram_gib) << 30;
  EXPECT_DOUBLE_EQ(effective_latency_ns(knl, cap, 1.0),
                   knl.mcdram_latency_ns);
  // No MCDRAM: DRAM latency regardless of working set.
  EXPECT_DOUBLE_EQ(effective_latency_ns(arch::bdw(), spills, 1.0),
                   arch::bdw().dram_latency_ns);
}

// ---------------------------------------------------------------------
// Satellite fixes: unknown-level lookups throw, stream wraps stay
// element-aligned, gather footprints stay inside the declared table.

TEST(Hierarchy, UnknownLevelNameThrows) {
  AccessPatternSpec spec = AccessPatternSpec::single(
      StreamPattern{.bytes_per_array = 32 * 1024, .arrays = 1});
  const auto phi = simulate_pattern(arch::knl(), spec, 20000, 7, 6);
  EXPECT_THROW((void)phi.hit_rate("LLC"), std::out_of_range);
  EXPECT_THROW((void)phi.served_at_or_above("L3"), std::out_of_range);
  EXPECT_NO_THROW((void)phi.hit_rate("MCDRAM$"));
  const auto bdw = simulate_pattern(arch::bdw(), spec, 20000, 7, 6);
  EXPECT_THROW((void)bdw.hit_rate("MCDRAM$"), std::out_of_range);
  EXPECT_NO_THROW((void)bdw.served_at_or_above("LLC"));
}

TEST(TraceGen, StreamWrapStaysElementAligned) {
  // 1001-byte arrays: the effective length must round down to 1000 so
  // every offset is a whole 8 B element, even after many wraps.
  AccessPatternSpec spec = AccessPatternSpec::single(
      StreamPattern{.bytes_per_array = 1001, .arrays = 1,
                    .writes_per_iter = 0});
  TraceGenerator gen(spec, 11);
  const std::uint64_t base = gen.next().addr;
  TraceGenerator gen2(spec, 11);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t off = gen2.next().addr - base;
    EXPECT_EQ(off % 8, 0u) << "misaligned after wrap at ref " << i;
    EXPECT_LT(off, 1001u);
  }
}

TEST(TraceGen, GatherStaysInsideDeclaredFootprint) {
  constexpr std::uint64_t kTable = 4096;
  AccessPatternSpec spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = kTable, .elem_bytes = 8,
                    .sequential_fraction = 0.5});
  TraceGenerator gen(spec, 13);
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = gen.next().addr;
    lo = std::min(lo, a);
    hi = std::max(hi, a);
  }
  // Driver stream and random gather together span at most table_bytes —
  // the range capacity scaling accounts for.
  EXPECT_LT(hi - lo, kTable);
}

// ---------------------------------------------------------------------
// Seed replica: the cache as it was before the compact layout and the
// block walkers, kept as an oracle that shares no code with Cache and
// as the speed floor the production replay must stay above.

/// One Way struct per line, valid/tag/lru triple-branch scan with early
/// exit, modulo set indexing via hardware divide. Semantically identical
/// to Cache by design.
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

/// The seed replay loop over BaselineCache levels of the geometry
/// Hierarchy builds for `cpu`: simulate_pattern's computation, one
/// reference and one level walk at a time.
HierarchyResult replica_replay(const arch::CpuSpec& cpu,
                               const AccessPatternSpec& spec,
                               std::uint64_t refs, std::uint64_t seed,
                               unsigned scale_shift) {
  const Hierarchy h(cpu, scale_shift);
  std::vector<BaselineCache> levels;
  for (std::size_t i = 0; i < h.num_levels(); ++i) {
    levels.emplace_back(h.level_config(i));
  }
  TraceGenerator gen(scale_spec(spec, scale_shift), seed);
  auto run = [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const MemRef ref = gen.next();
      for (auto& level : levels) {
        if (level.access(ref.addr, ref.write)) break;
      }
    }
  };
  run(refs);  // warmup, as simulate_pattern's
  for (auto& l : levels) l.reset_stats();
  run(refs);
  HierarchyResult r;
  r.refs = refs;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    r.levels.push_back({h.level_name(i), levels[i].stats()});
  }
  return r;
}

// ---------------------------------------------------------------------
// Batched generation and replay: bit-identical to TraceGenerator::next
// and to the seed replica.

std::vector<AccessPatternSpec> all_pattern_specs() {
  std::vector<AccessPatternSpec> specs;
  specs.push_back(AccessPatternSpec::single(StreamPattern{
      .bytes_per_array = 100'000, .arrays = 3, .writes_per_iter = 1}));
  specs.push_back(AccessPatternSpec::single(
      StridedPattern{.footprint_bytes = 77'777, .stride_bytes = 192}));
  specs.push_back(AccessPatternSpec::single(
      StencilPattern{.nx = 17, .ny = 13, .nz = 9, .elem_bytes = 8,
                     .radius = 1, .full_box = true}));
  specs.push_back(AccessPatternSpec::single(
      StencilPattern{.nx = 12, .ny = 20, .nz = 7, .elem_bytes = 4,
                     .radius = 2, .full_box = false}));
  specs.push_back(AccessPatternSpec::single(
      GatherPattern{.table_bytes = 60'000, .elem_bytes = 8,
                    .sequential_fraction = 0.2}));
  specs.push_back(AccessPatternSpec::single(
      ChasePattern{.footprint_bytes = 40'000, .node_bytes = 64}));
  specs.push_back(AccessPatternSpec::single(
      BlockedPattern{.matrix_bytes = 90'000, .tile_bytes = 4'000,
                     .tile_reuse = 7.5}));
  AccessPatternSpec mix;
  mix.components.push_back({StreamPattern{.bytes_per_array = 50'000}, 2.0});
  mix.components.push_back(
      {GatherPattern{.table_bytes = 30'000, .elem_bytes = 8}, 1.0});
  mix.components.push_back(
      {ChasePattern{.footprint_bytes = 20'000, .node_bytes = 64}, 0.5});
  mix.components.push_back(
      {BlockedPattern{.matrix_bytes = 40'000, .tile_bytes = 2'048}, 1.5});
  specs.push_back(mix);
  return specs;
}

class BatchedIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchedIdentity, FillMatchesScalarNext) {
  const auto spec = all_pattern_specs()[GetParam()];
  constexpr std::size_t kRefs = 30'000;
  TraceGenerator scalar(spec, 99);
  TraceGenerator batched(spec, 99);
  std::vector<MemRef> buf(kRefs);
  batched.fill(buf.data(), kRefs);
  for (std::size_t i = 0; i < kRefs; ++i) {
    const MemRef want = scalar.next();
    ASSERT_EQ(buf[i].addr, want.addr) << "ref " << i;
    ASSERT_EQ(buf[i].write, want.write) << "ref " << i;
  }
}

TEST_P(BatchedIdentity, FillAndNextInterleaveCleanly) {
  const auto spec = all_pattern_specs()[GetParam()];
  TraceGenerator scalar(spec, 7);
  TraceGenerator mixed(spec, 7);
  std::vector<MemRef> buf(1024);
  // Alternate odd-sized fills with scalar next() calls; the generator
  // state must track the pure-scalar stream exactly.
  const std::size_t chunks[] = {1, 7, 501, 3, 64, 997, 2, 130};
  for (const std::size_t c : chunks) {
    mixed.fill(buf.data(), c);
    for (std::size_t i = 0; i < c; ++i) {
      const MemRef want = scalar.next();
      ASSERT_EQ(buf[i].addr, want.addr);
      ASSERT_EQ(buf[i].write, want.write);
    }
    for (int i = 0; i < 5; ++i) {
      const MemRef want = scalar.next();
      const MemRef got = mixed.next();
      ASSERT_EQ(got.addr, want.addr);
      ASSERT_EQ(got.write, want.write);
    }
  }
}

TEST_P(BatchedIdentity, ReplayMatchesTheSeedReplica) {
  const auto spec = all_pattern_specs()[GetParam()];
  for (const auto& cpu : arch::all_machines()) {
    EXPECT_TRUE(simulate_pattern(cpu, spec, 40'000, 3, 6) ==
                replica_replay(cpu, spec, 40'000, 3, 6))
        << cpu.short_name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, BatchedIdentity,
                         ::testing::Range<std::size_t>(0, 8));

TEST(BatchedIdentitySuite, CoversEverySpec) {
  // Guard the Range() above against spec-list growth.
  EXPECT_EQ(all_pattern_specs().size(), 8u);
}

// ---------------------------------------------------------------------
// Shared passes: a sibling's last level sees exactly the stream its own
// replay would feed it.

/// One spec per pattern class, plus a mixture, each spanning about
/// `bytes` of full-scale footprint.
std::vector<AccessPatternSpec> specs_spanning(std::uint64_t bytes) {
  std::vector<AccessPatternSpec> specs;
  specs.push_back(AccessPatternSpec::single(StreamPattern{
      .bytes_per_array = bytes / 3, .arrays = 3, .writes_per_iter = 1}));
  specs.push_back(AccessPatternSpec::single(
      StridedPattern{.footprint_bytes = bytes, .stride_bytes = 192}));
  specs.push_back(AccessPatternSpec::single(
      StencilPattern{.nx = 64, .ny = 64, .nz = bytes / (64 * 64 * 8),
                     .elem_bytes = 8, .radius = 1, .full_box = false}));
  specs.push_back(AccessPatternSpec::single(
      GatherPattern{.table_bytes = bytes, .elem_bytes = 8,
                    .sequential_fraction = 0.2}));
  specs.push_back(AccessPatternSpec::single(
      ChasePattern{.footprint_bytes = bytes, .node_bytes = 64}));
  specs.push_back(AccessPatternSpec::single(
      BlockedPattern{.matrix_bytes = bytes, .tile_bytes = 1u << 20,
                     .tile_reuse = 4.0}));
  AccessPatternSpec mix;
  mix.components.push_back({StreamPattern{.bytes_per_array = bytes / 4}, 2.0});
  mix.components.push_back(
      {GatherPattern{.table_bytes = bytes / 2, .elem_bytes = 8}, 1.0});
  mix.components.push_back(
      {ChasePattern{.footprint_bytes = bytes / 4, .node_bytes = 64}, 0.5});
  specs.push_back(mix);
  return specs;
}

/// `cpu` with `factor` times its last-level capacity.
arch::CpuSpec with_last_level(arch::CpuSpec cpu, int factor) {
  cpu.short_name += "-x" + std::to_string(factor);
  (cpu.has_mcdram() ? cpu.mcdram_gib : cpu.llc_mib) *= factor;
  return cpu;
}

TEST(SharedPass, EachMemberMatchesItsOwnReplay) {
  constexpr unsigned kShift = 8;  // the model's scale shift
  constexpr std::uint64_t kRefs = 100'000;
  // KNM's last level is the magic-division walker's (a 1,820-set
  // MCDRAM), BDW's the 20-way LLC's.
  EXPECT_EQ(Hierarchy(arch::knm(), kShift).level_config(2).num_sets(), 1820u);
  EXPECT_EQ(Hierarchy(arch::bdw(), kShift).level_config(2).associativity,
            20u);
  for (const auto& cpu : {arch::knl(), arch::knm(), arch::bdw()}) {
    const std::vector<arch::CpuSpec> group = {cpu, with_last_level(cpu, 2),
                                              with_last_level(cpu, 4)};
    // 1.5x the per-core last-level share: it thrashes the base's last
    // level and fits the 4x sibling's.
    const double share = cpu.has_mcdram()
                             ? cpu.mcdram_gib * static_cast<double>(GiB)
                             : cpu.llc_mib * static_cast<double>(MiB);
    const auto bytes =
        static_cast<std::uint64_t>(1.5 * share / cpu.cores);
    int capacity_bound = 0;  // specs whose 4x sibling hits more
    for (const auto& spec : specs_spanning(bytes)) {
      const auto shared = simulate_siblings(group, spec, kRefs, 5, kShift);
      ASSERT_EQ(shared.size(), group.size());
      for (std::size_t m = 0; m < group.size(); ++m) {
        const auto alone = simulate_pattern(group[m], spec, kRefs, 5, kShift);
        const std::string where =
            group[m].short_name + " " + pattern_name(spec.components[0].pattern);
        EXPECT_EQ(shared[m].refs, alone.refs) << where;
        ASSERT_EQ(shared[m].levels.size(), alone.levels.size()) << where;
        for (std::size_t l = 0; l < alone.levels.size(); ++l) {
          const auto& got = shared[m].levels[l];
          const auto& want = alone.levels[l];
          EXPECT_EQ(got.name, want.name) << where;
          EXPECT_EQ(got.stats.hits, want.stats.hits) << where << " " << want.name;
          EXPECT_EQ(got.stats.misses, want.stats.misses)
              << where << " " << want.name;
          EXPECT_EQ(got.stats.writebacks, want.stats.writebacks)
              << where << " " << want.name;
        }
      }
      // More last-level capacity never loses hits (LRU inclusion).
      EXPECT_LE(shared[0].levels.back().stats.hits,
                shared[2].levels.back().stats.hits)
          << cpu.short_name;
      capacity_bound += shared[0].levels.back().stats.hits <
                        shared[2].levels.back().stats.hits;
    }
    // The siblings' last levels really see different capacity effects.
    EXPECT_GE(capacity_bound, 3) << cpu.short_name;
  }
}

TEST(SharedPass, RejectsASiblingWithDifferentUpperLevels) {
  // BDW's L2 slice is half KNL's: the two cannot share a pass.
  const auto spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 1u << 24, .elem_bytes = 8});
  const std::vector<arch::CpuSpec> group = {arch::knl(), arch::bdw()};
  try {
    (void)simulate_siblings(group, spec, 1'000, 5, 8);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("KNL"), std::string::npos) << msg;
    EXPECT_NE(msg.find("BDW"), std::string::npos) << msg;
  }
  // So can two hierarchies at different scale shifts.
  Hierarchy a(arch::knl(), 8);
  std::vector<Hierarchy> b = {Hierarchy(arch::knl(), 6)};
  SyntheticTraceSource src(spec, 5);
  EXPECT_THROW((void)a.replay(src, 1'000, 0, b), std::invalid_argument);
}

// ---------------------------------------------------------------------
// The seed replica against every walker the Table I machines build, and
// the speed floor the production replay must stay above.

TEST(SeedReplica, HierarchyReplayMatchesOnEveryWalker) {
  // At the model's scale shift the three machines build every block
  // walker: the one-set 8-way L1, the 8- and 16-way many-set L2s and
  // KNL's MCDRAM$, BDW's 20-way LLC and KNM's 1,820-set (magic-division)
  // MCDRAM$.
  constexpr unsigned kShift = 8;
  constexpr std::uint64_t kRefs = 100'000;
  EXPECT_EQ(Hierarchy(arch::knl(), kShift).level_config(0).num_sets(), 1u);
  EXPECT_EQ(Hierarchy(arch::knm(), kShift).level_config(2).num_sets(), 1820u);
  EXPECT_EQ(Hierarchy(arch::bdw(), kShift).level_config(2).associativity,
            20u);
  for (const auto& cpu : arch::all_machines()) {
    for (const auto& spec : specs_spanning(256ull << 20)) {
      const auto got = simulate_pattern(cpu, spec, kRefs, 5, kShift);
      const auto want = replica_replay(cpu, spec, kRefs, 5, kShift);
      EXPECT_TRUE(got == want)
          << cpu.short_name << " "
          << pattern_name(spec.components[0].pattern);
    }
  }
}

TEST(SpeedGate, ReplayAtLeastMatchesTheSeedReplica) {
  // Production replay (compact layout, block walkers, batched
  // generation) against the replica over every Table I machine; the
  // two alternate workload by workload, and each side keeps its best of
  // three rounds.
  constexpr unsigned kShift = 8;
  constexpr std::uint64_t kRefs = 200'000;
  const auto specs = specs_spanning(256ull << 20);
  double replica_s = std::numeric_limits<double>::infinity();
  double replay_s = replica_s;
  for (int round = 0; round < 3; ++round) {
    double replica_round = 0.0;
    double replay_round = 0.0;
    for (const auto& cpu : arch::all_machines()) {
      for (const auto& spec : specs) {
        const WallTimer t_replica;
        const auto want = replica_replay(cpu, spec, kRefs, 5, kShift);
        replica_round += t_replica.seconds();
        const WallTimer t_replay;
        const auto got = simulate_pattern(cpu, spec, kRefs, 5, kShift);
        replay_round += t_replay.seconds();
        ASSERT_TRUE(got == want) << cpu.short_name;
      }
    }
    replica_s = std::min(replica_s, replica_round);
    replay_s = std::min(replay_s, replay_round);
  }
  const double ratio = replica_s / replay_s;
  std::printf("replay vs seed replica: %.3f s vs %.3f s, %.2fx (gate >= 1x)\n",
              replay_s, replica_s, ratio);
  EXPECT_GE(ratio, 1.0);
}

TEST(Hierarchy, LevelLineLimitAdmitsTableIAndNamesTheLevel) {
  // Every Table I machine builds at exact geometry (scale shift 0).
  for (const auto& cpu : arch::all_machines()) {
    const Hierarchy h(cpu, 0);
    for (std::size_t i = 0; i < h.num_levels(); ++i) {
      EXPECT_LE(h.level_config(i).num_lines(), Hierarchy::kMaxLevelLines)
          << cpu.short_name << " " << h.level_name(i);
    }
  }
  // A level of no finite size is refused by machine and level instead of
  // reaching an out-of-range cast (Variant.RejectsMalformedAnd-
  // InconsistentSpecs covers MCDRAMs over the line limit).
  auto inf = arch::bdw();
  inf.short_name = "BDW-inf";
  inf.llc_mib = std::numeric_limits<double>::infinity();
  try {
    const Hierarchy h(inf, 8);
    ADD_FAILURE() << "built " << h.level_config(2).num_lines() << " lines";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("BDW-inf level LLC"), std::string::npos) << msg;
  }
}

TEST(Cache, AccessManyMatchesTheSeedReplica) {
  // Random traffic through a cache and the seed replica: every block
  // walker in the catalogue (8 and 16 ways one-set and many-set, 20 ways
  // many-set, the many-set forms with both power-of-two and
  // magic-division set counts) plus the walkers that read the
  // associativity at run time, one-set and many-set: packed order at 1,
  // 2, 4 and 6 ways, stamps at 20 and 24 ways.
  // The footprint is twice each cache's capacity, so hits are common
  // and any slip in LRU order or in state carried between blocks
  // changes the miss stream.
  const CacheConfig configs[] = {
      {.size_bytes = 64 * 8, .line_bytes = 64, .associativity = 8},
      {.size_bytes = 8192, .line_bytes = 64, .associativity = 8},
      {.size_bytes = 3 * 64 * 8, .line_bytes = 64, .associativity = 8},
      {.size_bytes = 64 * 16, .line_bytes = 64, .associativity = 16},
      {.size_bytes = 4 * 64 * 16, .line_bytes = 64, .associativity = 16},
      {.size_bytes = 5 * 64 * 16, .line_bytes = 64, .associativity = 16},
      {.size_bytes = 64 * 20, .line_bytes = 64, .associativity = 20},
      {.size_bytes = 8 * 64 * 20, .line_bytes = 64, .associativity = 20},
      {.size_bytes = 3 * 64 * 20, .line_bytes = 64, .associativity = 20},
      {.size_bytes = 64, .line_bytes = 64, .associativity = 1},
      {.size_bytes = 5 * 64, .line_bytes = 64, .associativity = 1},
      {.size_bytes = 64 * 2, .line_bytes = 64, .associativity = 2},
      {.size_bytes = 3 * 64 * 2, .line_bytes = 64, .associativity = 2},
      {.size_bytes = 64 * 4, .line_bytes = 64, .associativity = 4},
      {.size_bytes = 7 * 64 * 4, .line_bytes = 64, .associativity = 4},
      {.size_bytes = 5 * 64 * 6, .line_bytes = 64, .associativity = 6},
      {.size_bytes = 64 * 24, .line_bytes = 64, .associativity = 24},
      {.size_bytes = 24 * 64 * 24, .line_bytes = 64, .associativity = 24},
  };
  for (const auto& cfg : configs) {
    BaselineCache want(cfg);
    Cache got(cfg);
    Xoshiro256 rng(5);
    std::vector<MemRef> refs(2048);
    for (int round = 0; round < 8; ++round) {
      for (auto& r : refs) {
        r.addr = rng.below(2 * cfg.size_bytes);
        r.write = rng.uniform() < 0.3;
      }
      std::vector<MemRef> misses;
      for (const auto& r : refs) {
        if (!want.access(r.addr, r.write)) misses.push_back(r);
      }
      std::vector<MemRef> batch = refs;
      const std::size_t live = got.access_many(batch.data(), batch.size());
      ASSERT_EQ(live, misses.size())
          << cfg.associativity << " ways, " << cfg.num_sets() << " set(s)";
      for (std::size_t i = 0; i < live; ++i) {
        ASSERT_EQ(batch[i].addr, misses[i].addr);
        ASSERT_EQ(batch[i].write, misses[i].write);
      }
      EXPECT_TRUE(got.stats() == want.stats())
          << cfg.associativity << " ways, " << cfg.num_sets() << " set(s)";
    }
  }
}

TEST(MagicDivTest, ExactForAwkwardDivisors) {
  const std::uint64_t divisors[] = {1,  2,   3,    5,    7,   12,
                                    24, 255, 1000, 4095, 12345};
  Xoshiro256 rng(17);
  for (const std::uint64_t d : divisors) {
    const MagicDiv m(d);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t x = rng.next();
      ASSERT_EQ(m.div(x), x / d) << "x=" << x << " d=" << d;
      ASSERT_EQ(m.mod(x), x % d);
    }
    for (std::uint64_t x = 0; x < 100; ++x) {
      ASSERT_EQ(m.div(x), x / d);
    }
    ASSERT_EQ(m.div(~std::uint64_t{0}), ~std::uint64_t{0} / d);
  }
  EXPECT_THROW(MagicDiv(0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// SimCache: memoization must be invisible except in speed.

TEST(SimCacheTest, CachedResultIsIdenticalAndCounted) {
  SimCache cache;
  const auto spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 1u << 20, .elem_bytes = 8});
  const auto fresh = simulate_pattern(arch::knl(), spec, 30'000, 42, 6);
  const auto first =
      simulate_pattern_cached(&cache, arch::knl(), spec, 30'000, 42, 6);
  const auto second =
      simulate_pattern_cached(&cache, arch::knl(), spec, 30'000, 42, 6);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
  for (const auto* r : {&first, &second}) {
    ASSERT_EQ(r->levels.size(), fresh.levels.size());
    for (std::size_t i = 0; i < fresh.levels.size(); ++i) {
      EXPECT_EQ(r->levels[i].stats.hits, fresh.levels[i].stats.hits);
      EXPECT_EQ(r->levels[i].stats.misses, fresh.levels[i].stats.misses);
    }
  }
}

TEST(SimCacheTest, KeyDiscriminatesEveryInput) {
  const auto spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 1u << 20, .elem_bytes = 8});
  auto spec2 = spec;
  std::get<GatherPattern>(spec2.components[0].pattern).table_bytes += 1;
  auto spec3 = spec;
  spec3.components[0].weight = 2.0;
  const std::string base = SimCache::key(arch::knl(), spec, 1000, 42, 6);
  EXPECT_NE(base, SimCache::key(arch::knm(), spec, 1000, 42, 6));
  EXPECT_NE(base, SimCache::key(arch::knl(), spec2, 1000, 42, 6));
  EXPECT_NE(base, SimCache::key(arch::knl(), spec3, 1000, 42, 6));
  EXPECT_NE(base, SimCache::key(arch::knl(), spec, 1001, 42, 6));
  EXPECT_NE(base, SimCache::key(arch::knl(), spec, 1000, 43, 6));
  EXPECT_NE(base, SimCache::key(arch::knl(), spec, 1000, 42, 7));
  EXPECT_EQ(base, SimCache::key(arch::knl(), spec, 1000, 42, 6));
}

TEST(SimCacheTest, KeyIsPureGeometry) {
  // A replay is a pure function of the cache geometry: machine variants
  // that only respin bandwidth/TDP/FPUs share their base's simulations
  // (the explore grid's memoization), while any geometry edit — cores,
  // capacities — must not alias.
  const auto spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 1u << 20, .elem_bytes = 8});
  const std::string base = SimCache::key(arch::knl(), spec, 1000, 42, 6);
  const auto bw = arch::derive_variant(arch::knl(), "dram-bw=1.5+tdp=0.85");
  EXPECT_EQ(base, SimCache::key(bw.cpu, spec, 1000, 42, 6));
  const auto fpu = arch::derive_variant(arch::knl(), "drop-fp64-vec");
  EXPECT_EQ(base, SimCache::key(fpu.cpu, spec, 1000, 42, 6));
  const auto cap = arch::derive_variant(arch::knl(), "mcdram-cap=2");
  EXPECT_NE(base, SimCache::key(cap.cpu, spec, 1000, 42, 6));
  const auto cores = arch::derive_variant(arch::knl(), "cores=1.25");
  EXPECT_NE(base, SimCache::key(cores.cpu, spec, 1000, 42, 6));
}

TEST(SimCacheTest, ConcurrentLookupsAreDeterministic) {
  // Many threads race the same small key set; every thread must see the
  // exact stats a serial simulation produces, and the cache must end up
  // with one entry per distinct key.
  SimCache cache;
  const auto specs = all_pattern_specs();
  std::vector<HierarchyResult> serial;
  serial.reserve(specs.size());
  for (const auto& s : specs) {
    serial.push_back(simulate_pattern(arch::knl(), s, 10'000, 9, 6));
  }
  std::vector<std::thread> threads;
  std::vector<int> bad(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const auto r = simulate_pattern_cached(&cache, arch::knl(),
                                                 specs[i], 10'000, 9, 6);
          for (std::size_t l = 0; l < r.levels.size(); ++l) {
            if (r.levels[l].stats.hits != serial[i].levels[l].stats.hits ||
                r.levels[l].stats.misses !=
                    serial[i].levels[l].stats.misses) {
              bad[static_cast<std::size_t>(t)] = 1;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const int b : bad) EXPECT_EQ(b, 0);
  EXPECT_EQ(cache.size(), specs.size());
  const auto cs = cache.stats();
  EXPECT_EQ(cs.hits + cs.misses, 8u * 3u * specs.size());
  EXPECT_GE(cs.misses, specs.size());
}

}  // namespace
}  // namespace fpr::memsim
