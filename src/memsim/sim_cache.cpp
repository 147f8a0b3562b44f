#include "memsim/sim_cache.hpp"

#include <cstdio>
#include <type_traits>

namespace fpr::memsim {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += ';';
}

void append_f(std::string& out, double v) {
  // Shortest exact round-trip is overkill for a digest; 17 significant
  // digits distinguish any two distinct doubles.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g;", v);
  out += buf;
}

void append_pattern(std::string& out, const Pattern& p) {
  out += pattern_name(p);
  out += '{';
  std::visit(
      [&](const auto& pat) {
        using T = std::decay_t<decltype(pat)>;
        if constexpr (std::is_same_v<T, StreamPattern>) {
          append_u64(out, pat.bytes_per_array);
          append_u64(out, static_cast<std::uint64_t>(pat.arrays));
          append_u64(out, static_cast<std::uint64_t>(pat.writes_per_iter));
        } else if constexpr (std::is_same_v<T, StridedPattern>) {
          append_u64(out, pat.footprint_bytes);
          append_u64(out, pat.stride_bytes);
        } else if constexpr (std::is_same_v<T, StencilPattern>) {
          append_u64(out, pat.nx);
          append_u64(out, pat.ny);
          append_u64(out, pat.nz);
          append_u64(out, pat.elem_bytes);
          append_u64(out, static_cast<std::uint64_t>(pat.radius));
          append_u64(out, pat.full_box ? 1 : 0);
        } else if constexpr (std::is_same_v<T, GatherPattern>) {
          append_u64(out, pat.table_bytes);
          append_u64(out, pat.elem_bytes);
          append_f(out, pat.sequential_fraction);
          append_u64(out, pat.shared_table ? 1 : 0);
        } else if constexpr (std::is_same_v<T, ChasePattern>) {
          append_u64(out, pat.footprint_bytes);
          append_u64(out, pat.node_bytes);
        } else if constexpr (std::is_same_v<T, BlockedPattern>) {
          append_u64(out, pat.matrix_bytes);
          append_u64(out, pat.tile_bytes);
          append_f(out, pat.tile_reuse);
        }
      },
      p);
  out += '}';
}

/// The levels above the last: the part of the geometry a replay's
/// prefix (SimCache::prefix_key) depends on.
void append_upper_levels(std::string& k, const arch::CpuSpec& cpu) {
  append_u64(k, static_cast<std::uint64_t>(cpu.l1_kib));
  append_u64(k, static_cast<std::uint64_t>(cpu.l1_assoc));
  append_u64(k, static_cast<std::uint64_t>(cpu.l2_kib_per_core));
  append_u64(k, static_cast<std::uint64_t>(cpu.l2_assoc));
}

/// Machine part shared by key() and trace_key(): exactly the fields
/// Hierarchy's geometry derives from, and nothing else. The short name
/// is deliberately absent: a replay is a pure function of the geometry,
/// so derived machine variants (arch::derive_variant) that leave the
/// cache hierarchy untouched — bandwidth, TDP, or FPU respins — share
/// their base machine's simulations, while any geometry edit (cores,
/// capacities, associativities) changes the key and cannot alias old
/// results.
void append_geometry(std::string& k, const arch::CpuSpec& cpu) {
  append_upper_levels(k, cpu);
  // The last level: a per-core share of the LLC or MCDRAM.
  append_u64(k, static_cast<std::uint64_t>(cpu.cores));
  append_u64(k, static_cast<std::uint64_t>(cpu.llc_assoc));
  append_f(k, cpu.llc_mib);
  append_f(k, cpu.mcdram_gib);
}

/// Simulation part shared by key() and prefix_key().
void append_simulation(std::string& k, const AccessPatternSpec& spec,
                       std::uint64_t refs, std::uint64_t seed,
                       unsigned scale_shift) {
  k += '|';
  append_u64(k, refs);
  append_u64(k, seed);
  append_u64(k, scale_shift);
  k += '|';
  for (const auto& c : spec.components) {
    append_pattern(k, c.pattern);
    append_f(k, c.weight);
  }
}

}  // namespace

std::string SimCache::key(const arch::CpuSpec& cpu,
                          const AccessPatternSpec& spec, std::uint64_t refs,
                          std::uint64_t seed, unsigned scale_shift) {
  std::string k;
  k.reserve(160);
  append_geometry(k, cpu);
  append_simulation(k, spec, refs, seed, scale_shift);
  return k;
}

std::string SimCache::prefix_key(const arch::CpuSpec& cpu,
                                 const AccessPatternSpec& spec,
                                 std::uint64_t refs, std::uint64_t seed,
                                 unsigned scale_shift) {
  std::string k;
  k.reserve(160);
  append_upper_levels(k, cpu);
  append_simulation(k, spec, refs, seed, scale_shift);
  return k;
}

std::string SimCache::trace_key(const arch::CpuSpec& cpu,
                                std::uint64_t digest, std::uint64_t refs,
                                std::uint64_t warmup, unsigned scale_shift) {
  std::string k;
  k.reserve(120);
  append_geometry(k, cpu);
  // Trace part. The leading tag keeps this section disjoint from key()'s
  // (whose post-geometry section starts with a digit), so a file replay
  // can never alias a synthetic one.
  k += "|trace-digest;";
  append_u64(k, digest);
  append_u64(k, refs);
  append_u64(k, warmup);
  append_u64(k, scale_shift);
  return k;
}

std::shared_ptr<const HierarchyResult> SimCache::find(const std::string& key) {
  std::lock_guard lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second;
}

bool SimCache::contains(const std::string& key) const {
  std::lock_guard lock(mu_);
  return entries_.contains(key);
}

std::shared_ptr<const HierarchyResult> SimCache::insert(
    const std::string& key, HierarchyResult result) {
  auto value = std::make_shared<const HierarchyResult>(std::move(result));
  std::lock_guard lock(mu_);
  return entries_.try_emplace(key, std::move(value)).first->second;
}

SimCache::Stats SimCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t SimCache::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

HierarchyResult simulate_pattern_cached(SimCache* cache,
                                        const arch::CpuSpec& cpu,
                                        const AccessPatternSpec& spec,
                                        std::uint64_t refs, std::uint64_t seed,
                                        unsigned scale_shift) {
  if (cache == nullptr) {
    return simulate_pattern(cpu, spec, refs, seed, scale_shift);
  }
  const std::string k = SimCache::key(cpu, spec, refs, seed, scale_shift);
  if (auto found = cache->find(k)) return *found;
  // Simulate outside the cache lock; a concurrent simulation of the same
  // key computes the identical result, so either insert may win.
  return *cache->insert(k,
                        simulate_pattern(cpu, spec, refs, seed, scale_shift));
}

}  // namespace fpr::memsim
