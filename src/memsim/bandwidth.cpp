#include "memsim/bandwidth.hpp"

#include <algorithm>
#include <type_traits>
#include <variant>

#include "common/units.hpp"

namespace fpr::memsim {

BandwidthBreakdown effective_bandwidth(const arch::CpuSpec& cpu,
                                       std::uint64_t working_set_bytes,
                                       double mcdram_capture,
                                       double miss_streaming_fraction,
                                       const CacheModeParams& params) {
  BandwidthBreakdown out;
  out.dram_gbs = cpu.dram_bw_gbs;
  if (!cpu.has_mcdram()) {
    out.effective_gbs = cpu.dram_bw_gbs;
    return out;
  }

  // The spec carries its calibrated cache-mode hit efficiency (derived
  // variants inherit it from their base).
  out.mcdram_gbs = cpu.mcdram_bw_gbs * cpu.mcdram_hit_eff;

  // Capacity guard: a working set beyond the MCDRAM cannot be captured
  // regardless of what a (scaled) hierarchy simulation suggested.
  const double cap_bytes = cpu.mcdram_gib * static_cast<double>(GiB);
  double capture = std::clamp(mcdram_capture, 0.0, 1.0);
  if (static_cast<double>(working_set_bytes) > cap_bytes) {
    capture = std::min(capture, cap_bytes /
                                    static_cast<double>(working_set_bytes));
  }
  out.mcdram_fraction = capture;

  // Harmonic blend: time per byte = hit share at MCDRAM speed + miss
  // share at DRAM speed. The memory-side prefetcher rescues only the
  // *streaming* share of the misses (served at the flat DDR rate); the
  // unpredictable remainder pays the cache-mode miss_overhead double
  // transfer. A blanket never-below-DRAM floor here used to cancel that
  // penalty for every low-capture working set, contradicting the Fig. 4
  // cache-mode ladder — a spilled gather must model *below* flat DRAM
  // speed, while a spilled pure stream stays slightly above it.
  const double s = std::clamp(miss_streaming_fraction, 0.0, 1.0);
  const double miss = 1.0 - capture;
  const double miss_cost = s + (1.0 - s) * params.miss_overhead;
  const double t_per_byte = capture / out.mcdram_gbs +
                            miss * miss_cost / cpu.dram_bw_gbs;
  out.effective_gbs = 1.0 / t_per_byte;
  return out;
}

double miss_streaming_fraction(const AccessPatternSpec& spec) {
  double weighted = 0.0, total = 0.0;
  for (const auto& c : spec.components) {
    const double s = std::visit(
        [](const auto& pat) -> double {
          using T = std::decay_t<decltype(pat)>;
          if constexpr (std::is_same_v<T, GatherPattern>) {
            // Only the sequential driver stream is predictable; the
            // gathered table lookups are not.
            return pat.sequential_fraction;
          } else if constexpr (std::is_same_v<T, ChasePattern>) {
            return 0.0;  // each address depends on the previous load
          } else {
            // Stream, strided, stencil, and blocked sweeps all advance
            // by fixed strides the prefetcher locks onto.
            return 1.0;
          }
        },
        c.pattern);
    weighted += c.weight * s;
    total += c.weight;
  }
  return total > 0.0 ? weighted / total : 1.0;
}

double effective_latency_ns(const arch::CpuSpec& cpu,
                            std::uint64_t working_set_bytes,
                            double mcdram_capture,
                            const CacheModeParams& params) {
  if (!cpu.has_mcdram()) return cpu.dram_latency_ns;
  // Capacity guard, mirroring effective_bandwidth: capture beyond
  // capacity/working-set is impossible whatever the simulation said.
  const double cap_bytes = cpu.mcdram_gib * static_cast<double>(GiB);
  double c = std::clamp(mcdram_capture, 0.0, 1.0);
  if (static_cast<double>(working_set_bytes) > cap_bytes) {
    c = std::min(c, cap_bytes / static_cast<double>(working_set_bytes));
  }
  // Cache-mode miss pays the MCDRAM tag probe plus the DRAM access.
  return c * cpu.mcdram_latency_ns +
         (1.0 - c) * (cpu.mcdram_latency_ns * params.miss_latency_probe +
                      cpu.dram_latency_ns);
}

}  // namespace fpr::memsim
