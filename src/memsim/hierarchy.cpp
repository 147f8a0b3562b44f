#include "memsim/hierarchy.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/units.hpp"
#include "memsim/trace_source.hpp"

namespace fpr::memsim {

namespace {

CacheConfig make_cfg(std::uint64_t size, std::uint32_t assoc) {
  CacheConfig cfg;
  // Round capacity down to a whole number of sets (arbitrary set counts
  // are fine: Cache uses modulo indexing).
  const std::uint64_t lines = std::max<std::uint64_t>(size / 64, assoc);
  const std::uint64_t sets = std::max<std::uint64_t>(lines / assoc, 1);
  cfg.size_bytes = sets * assoc * 64;
  cfg.line_bytes = 64;
  cfg.associativity = assoc;
  return cfg;
}

}  // namespace

namespace {

[[noreturn]] void throw_unknown_level(const std::string& name,
                                      const std::vector<LevelResult>& levels) {
  std::string have;
  for (const auto& l : levels) {
    if (!have.empty()) have += ", ";
    have += l.name;
  }
  throw std::out_of_range("no hierarchy level named '" + name +
                          "' (levels: " + have + ")");
}

}  // namespace

double HierarchyResult::hit_rate(const std::string& name) const {
  for (const auto& l : levels) {
    if (l.name == name) return l.stats.hit_rate();
  }
  throw_unknown_level(name, levels);
}

double HierarchyResult::served_at_or_above(const std::string& name) const {
  std::uint64_t missed = refs;
  bool found = false;
  for (const auto& l : levels) {
    missed = l.stats.misses;
    if (l.name == name) {
      found = true;
      break;
    }
  }
  if (!found) throw_unknown_level(name, levels);
  if (refs == 0) return 0.0;
  return 1.0 - static_cast<double>(missed) / static_cast<double>(refs);
}

double HierarchyResult::dram_fraction(void) const {
  if (refs == 0 || levels.empty()) return 0.0;
  return static_cast<double>(levels.back().stats.misses) /
         static_cast<double>(refs);
}

Hierarchy::Hierarchy(const arch::CpuSpec& cpu, unsigned scale_shift)
    : scale_shift_(scale_shift) {
  // Single-core view: private L1 and L2 slice; shared LLC and (if present)
  // MCDRAM modelled as per-core shares of the aggregate capacity.
  const auto scale = [&](double bytes) {
    const auto b = static_cast<std::uint64_t>(bytes);
    const std::uint64_t s = b >> scale_shift_;
    return std::max<std::uint64_t>(s, 4 * 64);
  };

  levels_.emplace_back(
      make_cfg(scale(cpu.l1_kib * 1024.0), cpu.l1_assoc));
  names_.emplace_back("L1");

  if (cpu.l2_kib_per_core > 0) {
    levels_.emplace_back(
        make_cfg(scale(cpu.l2_kib_per_core * 1024.0), cpu.l2_assoc));
    names_.emplace_back("L2");
  }

  if (cpu.has_mcdram()) {
    // Xeon Phi: the aggregated L2 already is the LLC in Table I terms; the
    // MCDRAM acts as a memory-side cache shared by all cores.
    const double mcdram_share =
        cpu.mcdram_gib * static_cast<double>(GiB) / cpu.cores;
    levels_.emplace_back(make_cfg(scale(mcdram_share), 8));
    names_.emplace_back("MCDRAM$");
  } else {
    const double llc_share =
        cpu.llc_mib * static_cast<double>(MiB) / cpu.cores;
    levels_.emplace_back(make_cfg(scale(llc_share), cpu.llc_assoc));
    names_.emplace_back("LLC");
  }
}

namespace {

/// References per generate/filter round: large enough to amortize the
/// batching overheads, small enough that the block plus one level's way
/// arrays stay cache-resident.
constexpr std::size_t kReplayBlock = 1024;

}  // namespace

HierarchyResult Hierarchy::replay(TraceSource& src, std::uint64_t refs,
                                  std::uint64_t warmup) {
  for (auto& c : levels_) c.clear();
  std::vector<MemRef> block(kReplayBlock);
  // Per level L, the accesses it sees are level L-1's misses in order,
  // so filtering a whole block level by level replays exactly the same
  // per-cache access sequences as the scalar reference walk. A finite
  // source may produce a short block; run() reports how many references
  // it actually replayed.
  auto run = [&](std::uint64_t count) -> std::uint64_t {
    std::uint64_t done = 0;
    while (count > 0) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uint64_t>(count, kReplayBlock));
      const std::size_t n = src.fill(block.data(), want);
      if (n == 0) break;
      std::size_t live = n;
      for (auto& level : levels_) {
        live = level.access_many(block.data(), live);
        if (live == 0) break;
      }
      count -= n;
      done += n;
    }
    return done;
  };
  run(warmup);
  for (auto& c : levels_) c.reset_stats();
  const std::uint64_t measured = run(refs);
  HierarchyResult r;
  r.refs = measured;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    r.levels.push_back({names_[i], levels_[i].stats()});
  }
  return r;
}

HierarchyResult Hierarchy::replay(TraceGenerator& gen, std::uint64_t refs,
                                  std::uint64_t warmup) {
  SyntheticTraceSource src(gen);
  return replay(static_cast<TraceSource&>(src), refs, warmup);
}

HierarchyResult Hierarchy::replay_scalar(TraceGenerator& gen,
                                         std::uint64_t refs,
                                         std::uint64_t warmup) {
  for (auto& c : levels_) c.clear();
  auto run = [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const MemRef ref = gen.next();
      for (auto& level : levels_) {
        const bool hit = level.access(ref.addr, ref.write);
        if (hit) break;
      }
    }
  };
  run(warmup);
  for (auto& c : levels_) c.reset_stats();
  run(refs);
  HierarchyResult r;
  r.refs = refs;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    r.levels.push_back({names_[i], levels_[i].stats()});
  }
  return r;
}

AccessPatternSpec scale_spec(const AccessPatternSpec& spec, unsigned shift) {
  auto scale = [&](std::uint64_t v) {
    const std::uint64_t s = v >> shift;
    // Small floor: a footprint that fits the (scaled) caches must keep
    // fitting after the scale-down or small-working-set kernels get
    // artificial misses.
    return std::max<std::uint64_t>(s, 512);
  };
  // Tiles model per-core cache blocking: floor at a few lines only, so a
  // small real tile still fits the scaled L1/L2 (reuse must survive the
  // scale-down or GEMM-class kernels lose their blocking).
  auto scale_tile = [&](std::uint64_t v) {
    const std::uint64_t s = v >> shift;
    return std::max<std::uint64_t>(s, 256);
  };
  AccessPatternSpec out;
  for (const auto& c : spec.components) {
    Pattern p = c.pattern;
    std::visit(
        [&](auto& pat) {
          using T = std::decay_t<decltype(pat)>;
          if constexpr (std::is_same_v<T, StreamPattern>) {
            pat.bytes_per_array = scale(pat.bytes_per_array);
          } else if constexpr (std::is_same_v<T, StridedPattern>) {
            pat.footprint_bytes = scale(pat.footprint_bytes);
          } else if constexpr (std::is_same_v<T, StencilPattern>) {
            // Shrink the grid isotropically: each dim by 2^(shift/3),
            // remainder applied to z.
            const unsigned per_dim = shift / 3;
            const unsigned rem = shift - 2 * per_dim;
            pat.nx = std::max<std::uint64_t>(pat.nx >> per_dim, 4);
            pat.ny = std::max<std::uint64_t>(pat.ny >> per_dim, 4);
            pat.nz = std::max<std::uint64_t>(pat.nz >> rem, 4);
          } else if constexpr (std::is_same_v<T, GatherPattern>) {
            pat.table_bytes = scale(pat.table_bytes);
          } else if constexpr (std::is_same_v<T, ChasePattern>) {
            pat.footprint_bytes = scale(pat.footprint_bytes);
          } else if constexpr (std::is_same_v<T, BlockedPattern>) {
            pat.matrix_bytes = scale(pat.matrix_bytes);
            pat.tile_bytes = scale_tile(pat.tile_bytes);
          }
        },
        p);
    out.components.push_back({std::move(p), c.weight});
  }
  return out;
}

HierarchyResult simulate_pattern(const arch::CpuSpec& cpu,
                                 const AccessPatternSpec& spec,
                                 std::uint64_t refs, std::uint64_t seed,
                                 unsigned scale_shift) {
  Hierarchy h(cpu, scale_shift);
  const AccessPatternSpec scaled = scale_spec(spec, scale_shift);
  // Warm the caches with an equal-length prefix so measured rates are
  // steady-state (cyclic generators otherwise bias toward cold misses).
  SyntheticTraceSource src(scaled, seed);
  return h.replay(src, refs, refs);
}

}  // namespace fpr::memsim
