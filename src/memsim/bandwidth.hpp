// Bandwidth model: what sustained bandwidth does a kernel see on a given
// machine? On the Phis the MCDRAM runs in *cache mode* (Table I), so the
// answer depends on how much of the kernel's traffic the MCDRAM captures
// — which is exactly what the paper measures with BabelStream at 2 GiB
// (fits: ~86%/75% of flat-mode bandwidth) and 14 GiB vectors (does not
// fit: slightly above DRAM throughput due to prefetch).
#pragma once

#include <cstdint>

#include "arch/cpu_spec.hpp"
#include "memsim/trace_gen.hpp"

namespace fpr::memsim {

struct BandwidthBreakdown {
  double mcdram_fraction = 0.0;  ///< share of traffic served by MCDRAM
  double effective_gbs = 0.0;    ///< harmonic-mean sustained bandwidth
  double mcdram_gbs = 0.0;       ///< component bandwidths used
  double dram_gbs = 0.0;
};

/// Overheads of running the MCDRAM as a memory-side cache rather than
/// flat-mapped memory: every access pays a tag probe and misses incur a
/// read-for-ownership style double transfer. The hit efficiency itself
/// (the paper's 86% on KNL, 75% on KNM) is CpuSpec::mcdram_hit_eff.
struct CacheModeParams {
  double miss_overhead = 1.9;  ///< DRAM bytes moved per missed byte
  /// Latency adder of a cache-mode miss: fraction of the MCDRAM access
  /// time spent probing the memory-side tags before the DRAM fill can
  /// even start (a miss pays the probe AND the DRAM trip).
  double miss_latency_probe = 0.35;
};

/// Effective sustained bandwidth for a working set of the given size with
/// the given MCDRAM capture fraction (from the hierarchy simulation; pass
/// 1.0 when the working set fits entirely). `miss_streaming_fraction` is
/// the share of cache-mode misses the memory-side prefetcher can stream
/// at the full DDR rate (see miss_streaming_fraction(spec)); only the
/// remaining, unpredictable misses pay the miss_overhead double
/// transfer. The default of 1.0 — every miss prefetched — reproduces the
/// paper's BabelStream observation that a spilled pure stream still runs
/// slightly *above* flat DRAM speed, while gather/chase mixes drop below
/// it, as the Fig. 4 cache-mode ladder requires.
BandwidthBreakdown effective_bandwidth(const arch::CpuSpec& cpu,
                                       std::uint64_t working_set_bytes,
                                       double mcdram_capture,
                                       double miss_streaming_fraction = 1.0,
                                       const CacheModeParams& params = {});

/// Weighted share of an access mix the memory-side prefetcher can
/// predict: streams, strides, stencils, and blocked sweeps count fully;
/// gathers count their sequential driver share; pointer chases not at
/// all.
double miss_streaming_fraction(const AccessPatternSpec& spec);

/// Average memory latency (ns) seen past the on-chip caches. Applies
/// the same MCDRAM capacity guard as effective_bandwidth: a working set
/// larger than the MCDRAM caps the capture at capacity/working-set no
/// matter what a (scaled) hierarchy simulation suggested, so a spilled
/// working set pays DRAM-dominated latency alongside its clamped
/// bandwidth instead of an optimistic MCDRAM-weighted figure.
double effective_latency_ns(const arch::CpuSpec& cpu,
                            std::uint64_t working_set_bytes,
                            double mcdram_capture,
                            const CacheModeParams& params = {});

}  // namespace fpr::memsim
