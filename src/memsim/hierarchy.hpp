// Multi-level hierarchy simulation: a single core's view of L1 -> L2 ->
// (LLC | MCDRAM-as-cache) -> DRAM, built from a CpuSpec. Because a full
// 16 GiB MCDRAM cache cannot be simulated line-by-line in reasonable
// memory, the hierarchy is *scaled*: capacities and working sets shrink
// by the same power-of-two factor, which preserves hit rates for the
// self-similar access patterns we replay (stream, stencil, gather, chase,
// blocked reuse are all scale-free in the capacity/footprint ratio).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arch/cpu_spec.hpp"
#include "memsim/cache.hpp"
#include "memsim/trace_gen.hpp"

namespace fpr::memsim {

class TraceSource;  // memsim/trace_source.hpp

struct LevelResult {
  std::string name;   ///< "L1", "L2", "LLC", "MCDRAM$"
  CacheStats stats;

  friend bool operator==(const LevelResult&, const LevelResult&) = default;
};

/// Result of replaying a trace through the hierarchy. Two replays of one
/// reference stream through one geometry compare equal, whichever path
/// (own or shared pass, synthetic or file-backed source) ran them.
struct HierarchyResult {
  std::vector<LevelResult> levels;
  std::uint64_t refs = 0;

  friend bool operator==(const HierarchyResult&,
                         const HierarchyResult&) = default;

  /// Hit rate of the level with the given name. Throws std::out_of_range
  /// for a name this hierarchy has no level of (e.g. asking a Phi result
  /// for "LLC"): a mix-up must never silently read as a 0% hit rate.
  [[nodiscard]] double hit_rate(const std::string& name) const;

  /// Fraction of references served at or above the named level, i.e.
  /// without going past it toward memory. Throws std::out_of_range for
  /// an unknown level name (it would otherwise silently report the
  /// bottom level's value).
  [[nodiscard]] double served_at_or_above(const std::string& name) const;

  /// Fraction of all references that went all the way to DRAM.
  [[nodiscard]] double dram_fraction() const;
};

class Hierarchy {
 public:
  /// Largest level a hierarchy builds, in 64-byte lines after scaling
  /// (512 MiB of capacity, about 80 MB of way state). It admits every
  /// Table I machine at scale shift 0: KNL's per-core MCDRAM share is
  /// 4,194,304 lines.
  static constexpr std::uint64_t kMaxLevelLines = std::uint64_t{1} << 23;

  /// Build a scaled single-core hierarchy for `cpu`. `scale_shift` halves
  /// all capacities that many times (default 2^6 = 64x reduction; pass 0
  /// for exact geometry in unit tests). Throws std::invalid_argument,
  /// naming the machine and the level, when a level's scaled size is not
  /// finite or exceeds kMaxLevelLines.
  explicit Hierarchy(const arch::CpuSpec& cpu, unsigned scale_shift = 6);

  /// Replay up to `refs` references from a source. Working-set
  /// footprints behind the source must be pre-scaled by scale_spec().
  /// The first `warmup` references fill the caches without being
  /// counted, so the result reflects steady-state hit rates. A finite
  /// source (FileTraceSource) may run dry early; the result's `refs`
  /// reports the count actually measured.
  ///
  /// The replay is batched: references are pulled in blocks
  /// (TraceSource::fill) and each level filters a whole block to the
  /// miss stream the next level consumes (Cache::access_many), hoisting
  /// source dispatch and the level loop out of the per-reference path.
  /// Results are bit-identical to walking each reference down the levels
  /// one at a time (tests/memsim_test's seed replica).
  HierarchyResult replay(TraceSource& src, std::uint64_t refs,
                         std::uint64_t warmup = 0);

  /// Shared pass: the same replay, and in the same loop each block's
  /// last-level input also goes to the last level of every sibling — a
  /// hierarchy with this one's scale shift and levels above the last.
  /// Returns this hierarchy's result, then each sibling's in order; every
  /// one equals what a separate replay() of the same source through that
  /// hierarchy gives. Throws std::invalid_argument, naming both machines,
  /// for a sibling whose levels above the last differ.
  std::vector<HierarchyResult> replay(TraceSource& src, std::uint64_t refs,
                                      std::uint64_t warmup,
                                      std::span<Hierarchy> siblings);

  [[nodiscard]] unsigned scale_shift() const { return scale_shift_; }
  [[nodiscard]] std::size_t num_levels() const { return levels_.size(); }
  [[nodiscard]] const std::string& level_name(std::size_t i) const {
    return names_[i];
  }
  [[nodiscard]] const CacheConfig& level_config(std::size_t i) const {
    return levels_[i].config();
  }
  /// Direct level access for drivers that stage the replay themselves
  /// (fprbench's per-level walk timers stay outside src/memsim, where
  /// wall clocks are barred by the determinism lint).
  [[nodiscard]] Cache& level_cache(std::size_t i) { return levels_[i]; }

 private:
  /// Throws unless `sib` is a sibling of this hierarchy (see replay).
  void check_sibling(const Hierarchy& sib) const;
  /// This hierarchy's levels above the last with `last` as the last one.
  [[nodiscard]] HierarchyResult result(std::uint64_t refs,
                                       const Hierarchy& last) const;

  std::vector<Cache> levels_;
  std::vector<std::string> names_;
  std::string machine_;  ///< the CpuSpec's short name, for errors
  unsigned scale_shift_ = 0;
};

/// Convenience: replay a pattern spec with full-size footprints through a
/// scaled hierarchy for `cpu`, auto-scaling every pattern footprint.
HierarchyResult simulate_pattern(const arch::CpuSpec& cpu,
                                 const AccessPatternSpec& spec,
                                 std::uint64_t refs = 1u << 20,
                                 std::uint64_t seed = 0x0fbeef,
                                 unsigned scale_shift = 6);

/// simulate_pattern for sibling machines (Hierarchy::replay's rule) in
/// one shared pass: one result per machine, in order, each equal to
/// simulate_pattern for that machine alone.
std::vector<HierarchyResult> simulate_siblings(
    std::span<const arch::CpuSpec> cpus, const AccessPatternSpec& spec,
    std::uint64_t refs, std::uint64_t seed, unsigned scale_shift);

/// Scale all footprint fields of a pattern spec by 2^-shift (helper used
/// by simulate_pattern; exposed for tests).
AccessPatternSpec scale_spec(const AccessPatternSpec& spec, unsigned shift);

}  // namespace fpr::memsim
