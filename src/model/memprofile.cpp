#include "model/memprofile.hpp"

#include <algorithm>
#include <cmath>

namespace fpr::model {

memsim::AccessPatternSpec per_core_slice(const memsim::AccessPatternSpec& spec,
                                         double divisor) {
  using namespace memsim;
  auto div = [&](std::uint64_t v) {
    const double d = static_cast<double>(v) / std::max(1.0, divisor);
    // Small floor (see scale_spec): per-core slices that genuinely fit
    // the private caches must be allowed to.
    return std::max<std::uint64_t>(static_cast<std::uint64_t>(d), 512);
  };
  AccessPatternSpec out;
  for (const auto& c : spec.components) {
    Pattern p = c.pattern;
    std::visit(
        [&](auto& pat) {
          using T = std::decay_t<decltype(pat)>;
          if constexpr (std::is_same_v<T, StreamPattern>) {
            pat.bytes_per_array = div(pat.bytes_per_array);
          } else if constexpr (std::is_same_v<T, StridedPattern>) {
            pat.footprint_bytes = div(pat.footprint_bytes);
          } else if constexpr (std::is_same_v<T, StencilPattern>) {
            // Domain decomposition: each core works a z-slab.
            pat.nz = std::max<std::uint64_t>(
                static_cast<std::uint64_t>(
                    static_cast<double>(pat.nz) / std::max(1.0, divisor)),
                4);
          } else if constexpr (std::is_same_v<T, GatherPattern>) {
            // Rank-local tables shrink under decomposition. Shared
            // tables (XSBench grid, NGSA index) are divided too: the
            // shared caches hold ONE copy, so preserving the
            // capacity/footprint *ratio* in the per-core simulation
            // requires dividing both sides by the core count.
            pat.table_bytes = div(pat.table_bytes);
          } else if constexpr (std::is_same_v<T, ChasePattern>) {
            pat.footprint_bytes = div(pat.footprint_bytes);
          } else if constexpr (std::is_same_v<T, BlockedPattern>) {
            pat.matrix_bytes = div(pat.matrix_bytes);
            pat.tile_bytes = std::min(pat.tile_bytes, pat.matrix_bytes);
          }
        },
        p);
    out.components.push_back({std::move(p), c.weight});
  }
  return out;
}

MemoryProfile profile_memory(const arch::CpuSpec& cpu,
                             const kernels::WorkloadMeasurement& w,
                             std::uint64_t refs, unsigned scale_shift,
                             memsim::SimCache* cache) {
  // Per-core slice of the footprint, then the shared scale-down that the
  // hierarchy also applies to its capacities.
  const auto sliced = per_core_slice(w.access, cpu.cores);
  return profile_from_replay(
      cpu, w,
      memsim::simulate_pattern_cached(cache, cpu, sliced, refs, kProfileSeed,
                                      scale_shift));
}

namespace {

/// The derivation profile_from_replay and profile_trace share. Hit rates
/// and the off-chip split come from `res`. `bytes` is the architectural
/// traffic the replay stands for: trace references model 8-byte
/// accesses and a miss moves a 64-byte line, so traffic past a level
/// with miss fraction f is bytes * f * (64/8). `working_set` and
/// `streaming_fraction` (the share of off-chip misses prefetchers can
/// stream at the full DDR rate) feed the bandwidth and latency terms;
/// `dep_fraction` of the off-chip references serialize.
MemoryProfile derive_profile(const arch::CpuSpec& cpu,
                             const memsim::HierarchyResult& res, double bytes,
                             std::uint64_t working_set,
                             double streaming_fraction, double dep_fraction) {
  MemoryProfile mp;
  mp.l2_hit = res.hit_rate("L2");
  mp.llc_hit = cpu.has_mcdram() ? res.hit_rate("MCDRAM$")
                                : res.hit_rate("LLC");

  // "Off-chip" traffic is what the bandwidth term pays for: on the Phis
  // everything past the (aggregated) L2 goes to the memory side
  // (MCDRAM cache or DDR); on BDW the L3 is still on-chip, so only
  // LLC misses reach DRAM.
  const double past_l2 = 1.0 - res.served_at_or_above("L2");
  const double past_last = res.dram_fraction();
  mp.offchip_fraction = cpu.has_mcdram() ? past_l2 : past_last;
  mp.offchip_bytes = bytes * mp.offchip_fraction * 8.0;
  mp.dram_bytes = bytes * past_last * 8.0;

  if (cpu.has_mcdram()) {
    mp.mcdram_capture = past_l2 > 0.0
                            ? std::clamp(1.0 - past_last / past_l2, 0.0, 1.0)
                            : 1.0;
  } else {
    mp.mcdram_capture = 0.0;
  }

  const auto bw = memsim::effective_bandwidth(cpu, working_set,
                                              mp.mcdram_capture,
                                              streaming_fraction);
  mp.effective_bw_gbs = bw.effective_gbs;
  mp.latency_ns =
      memsim::effective_latency_ns(cpu, working_set, mp.mcdram_capture);

  // Dependent (serialized) off-chip references.
  const double offchip_refs = bytes / 8.0 * past_l2;
  mp.dep_refs = offchip_refs * dep_fraction;
  return mp;
}

}  // namespace

MemoryProfile profile_from_replay(const arch::CpuSpec& cpu,
                                  const kernels::WorkloadMeasurement& w,
                                  const memsim::HierarchyResult& res) {
  const double arch_bytes = static_cast<double>(w.ops.bytes_read) +
                            static_cast<double>(w.ops.bytes_written);
  return derive_profile(cpu, res, arch_bytes, w.working_set_bytes,
                        memsim::miss_streaming_fraction(w.access),
                        w.traits.latency_dep_fraction);
}

MemoryProfile profile_trace(const arch::CpuSpec& cpu,
                            const memsim::HierarchyResult& res,
                            std::uint64_t working_set_bytes) {
  // The replay counted every reference exactly. An address trace
  // carries no instruction mix: its misses count as fully streamable
  // and none of its references as dependent.
  return derive_profile(cpu, res, static_cast<double>(res.refs) * 8.0,
                        working_set_bytes, 1.0, 0.0);
}

}  // namespace fpr::model
