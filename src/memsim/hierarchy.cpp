#include "memsim/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
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
    : machine_(cpu.short_name), scale_shift_(scale_shift) {
  // Single-core view: private L1 and L2 slice; shared LLC and (if present)
  // MCDRAM modelled as per-core shares of the aggregate capacity.
  const auto add_level = [&](const char* name, double bytes,
                             std::uint32_t assoc) {
    // Scaling by a power of two is exact, so truncating the scaled size
    // equals shifting the truncated one; checking it first keeps every
    // cast below in range.
    const double scaled = std::ldexp(bytes, -static_cast<int>(scale_shift_));
    if (!(scaled >= 0.0 &&
          scaled / 64.0 <= static_cast<double>(kMaxLevelLines))) {
      char size[32];
      std::snprintf(size, sizeof(size), "%g", scaled);
      std::string msg = "memsim: ";
      msg += machine_;
      msg += " level ";
      msg += name;
      msg += ": scaled size ";
      msg += size;
      msg += " bytes is not finite or exceeds the ";
      msg += std::to_string(kMaxLevelLines);
      msg += "-line limit";
      throw std::invalid_argument(msg);
    }
    const auto s = static_cast<std::uint64_t>(scaled);
    levels_.emplace_back(make_cfg(std::max<std::uint64_t>(s, 4 * 64), assoc));
    names_.emplace_back(name);
  };

  add_level("L1", cpu.l1_kib * 1024.0, cpu.l1_assoc);
  if (cpu.l2_kib_per_core > 0) {
    add_level("L2", cpu.l2_kib_per_core * 1024.0, cpu.l2_assoc);
  }
  if (cpu.has_mcdram()) {
    // Xeon Phi: the aggregated L2 already is the LLC in Table I terms; the
    // MCDRAM acts as a memory-side cache shared by all cores.
    add_level("MCDRAM$", cpu.mcdram_gib * static_cast<double>(GiB) / cpu.cores,
              8);
  } else {
    add_level("LLC", cpu.llc_mib * static_cast<double>(MiB) / cpu.cores,
              cpu.llc_assoc);
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
  return std::move(replay(src, refs, warmup, {}).front());
}

std::vector<HierarchyResult> Hierarchy::replay(TraceSource& src,
                                               std::uint64_t refs,
                                               std::uint64_t warmup,
                                               std::span<Hierarchy> siblings) {
  for (const Hierarchy& sib : siblings) check_sibling(sib);
  for (auto& c : levels_) c.clear();
  for (Hierarchy& sib : siblings) sib.levels_.back().clear();
  std::vector<MemRef> block(kReplayBlock);
  std::vector<MemRef> sibling_block(siblings.empty() ? 0 : kReplayBlock);
  Cache& last = levels_.back();
  const std::size_t upper = levels_.size() - 1;
  // Per level L, the accesses it sees are level L-1's misses in order,
  // so filtering a whole block level by level replays exactly the same
  // per-cache access sequences as walking one reference at a time. A
  // sibling's levels above the last equal these, so its last level sees
  // exactly this last level's input. A finite source may produce a short
  // block; run() reports how many references it actually replayed.
  auto run = [&](std::uint64_t count) -> std::uint64_t {
    std::uint64_t done = 0;
    while (count > 0) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uint64_t>(count, kReplayBlock));
      const std::size_t n = src.fill(block.data(), want);
      if (n == 0) break;
      std::size_t live = n;
      for (std::size_t i = 0; i < upper && live > 0; ++i) {
        live = levels_[i].access_many(block.data(), live);
      }
      if (live > 0) {
        // access_many compacts its input in place: each sibling filters
        // its own copy.
        for (Hierarchy& sib : siblings) {
          std::copy_n(block.data(), live, sibling_block.data());
          sib.levels_.back().access_many(sibling_block.data(), live);
        }
        last.access_many(block.data(), live);
      }
      count -= n;
      done += n;
    }
    return done;
  };
  run(warmup);
  for (auto& c : levels_) c.reset_stats();
  for (Hierarchy& sib : siblings) sib.levels_.back().reset_stats();
  const std::uint64_t measured = run(refs);
  std::vector<HierarchyResult> out;
  out.reserve(1 + siblings.size());
  out.push_back(result(measured, *this));
  for (const Hierarchy& sib : siblings) out.push_back(result(measured, sib));
  return out;
}

void Hierarchy::check_sibling(const Hierarchy& sib) const {
  std::string why;
  if (sib.scale_shift_ != scale_shift_) {
    why = "scale shift " + std::to_string(sib.scale_shift_) + " vs " +
          std::to_string(scale_shift_);
  } else if (sib.levels_.size() != levels_.size()) {
    why = std::to_string(sib.levels_.size()) + " levels vs " +
          std::to_string(levels_.size());
  } else {
    for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
      const CacheConfig& a = levels_[i].config();
      const CacheConfig& b = sib.levels_[i].config();
      if (names_[i] != sib.names_[i] || a.size_bytes != b.size_bytes ||
          a.line_bytes != b.line_bytes || a.associativity != b.associativity) {
        why = "level " + names_[i] + " differs";
        break;
      }
    }
  }
  if (!why.empty()) {
    std::string msg = "memsim: ";
    msg += sib.machine_;
    msg += " cannot share a replay pass with ";
    msg += machine_;
    msg += ": ";
    msg += why;
    msg += " (siblings differ only in the last level)";
    throw std::invalid_argument(msg);
  }
}

HierarchyResult Hierarchy::result(std::uint64_t refs,
                                  const Hierarchy& last) const {
  HierarchyResult r;
  r.refs = refs;
  const std::size_t upper = levels_.size() - 1;
  for (std::size_t i = 0; i < upper; ++i) {
    r.levels.push_back({names_[i], levels_[i].stats()});
  }
  r.levels.push_back({last.names_.back(), last.levels_.back().stats()});
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

std::vector<HierarchyResult> simulate_siblings(
    std::span<const arch::CpuSpec> cpus, const AccessPatternSpec& spec,
    std::uint64_t refs, std::uint64_t seed, unsigned scale_shift) {
  if (cpus.empty()) return {};
  std::vector<Hierarchy> hs;
  hs.reserve(cpus.size());
  for (const auto& cpu : cpus) hs.emplace_back(cpu, scale_shift);
  // The same source and warmup as simulate_pattern.
  SyntheticTraceSource src(scale_spec(spec, scale_shift), seed);
  return hs.front().replay(src, refs, refs,
                           std::span<Hierarchy>(hs).subspan(1));
}

}  // namespace fpr::memsim
