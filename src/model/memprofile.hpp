// Memory profiling glue: run a kernel's access pattern through the scaled
// cache-hierarchy simulation for a machine and derive the quantities the
// execution model and Table IV need (hit rates, off-chip traffic split,
// effective bandwidth and latency).
#pragma once

#include "arch/cpu_spec.hpp"
#include "memsim/bandwidth.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/sim_cache.hpp"
#include "kernels/workload.hpp"

namespace fpr::model {

/// Default capacity scale-down (2^8 = 256x) for the hierarchy
/// simulation: keeps footprint/refs ratios small enough that
/// steady-state hit rates dominate cold misses.
inline constexpr unsigned kDefaultScaleShift = 8;

/// Seed of the profiling replay (fixed: profiles must be repeatable and
/// memoizable across stages and processes).
inline constexpr std::uint64_t kProfileSeed = 0xfeed1234;

/// Default trace length per hierarchy replay: long enough for
/// steady-state hit rates at the default scale shift, short enough to
/// keep a full study's simulation budget in check.
inline constexpr std::uint64_t kDefaultTraceRefs = 400'000;

struct MemoryProfile {
  double l2_hit = 0.0;         ///< Table IV "L2h" (L1 misses that hit L2)
  double llc_hit = 0.0;        ///< Table IV "LLh" (L3 on BDW, MCDRAM$ on Phi)
  double offchip_fraction = 0.0;  ///< refs going past private caches
  double offchip_bytes = 0.0;  ///< traffic past L2 (MCDRAM+DRAM on Phi)
  double dram_bytes = 0.0;     ///< traffic reaching DDR
  double mcdram_capture = 0.0; ///< share of off-chip refs served by MCDRAM
  double effective_bw_gbs = 0.0;
  double latency_ns = 0.0;
  double dep_refs = 0.0;       ///< serialized (dependent) off-chip refs
};

/// Divide all footprints of a total-scale pattern spec by `divisor`
/// (per-core slice under domain decomposition; stencils split along z).
memsim::AccessPatternSpec per_core_slice(const memsim::AccessPatternSpec& spec,
                                         double divisor);

/// Profile `w` on `cpu`. `refs` bounds the simulated trace length (see
/// kDefaultScaleShift for the capacity reduction). When `cache` is
/// non-null the hierarchy replay — the dominant cost — is memoized
/// through it, keyed by the full simulation input tuple; results are
/// bit-identical with or without a cache.
MemoryProfile profile_memory(const arch::CpuSpec& cpu,
                             const kernels::WorkloadMeasurement& w,
                             std::uint64_t refs = kDefaultTraceRefs,
                             unsigned scale_shift = kDefaultScaleShift,
                             memsim::SimCache* cache = nullptr);

/// profile_memory's derivation alone: the profile of `w` on `cpu` given
/// `res`, the replay of `w`'s per-core slice that profile_memory runs.
/// For callers that schedule that replay themselves.
MemoryProfile profile_from_replay(const arch::CpuSpec& cpu,
                                  const kernels::WorkloadMeasurement& w,
                                  const memsim::HierarchyResult& res);

/// Profile a replayed external trace (`fpr trace --out`): the same
/// derived quantities as profile_memory, but the traffic terms come
/// straight from the replay — each trace reference models an 8-byte
/// access and a miss moves a 64-byte line — and the working set is the
/// trace's touched-line footprint (io::TraceInfo::working_set_bytes).
/// An external trace carries no instruction mix, so the
/// dependent-reference serialization term is 0 and `streaming_fraction`
/// (the share of off-chip misses prefetchers can stream at the full DDR
/// rate) defaults to fully streamable.
MemoryProfile profile_trace(const arch::CpuSpec& cpu,
                            const memsim::HierarchyResult& res,
                            std::uint64_t working_set_bytes,
                            double streaming_fraction = 1.0);

}  // namespace fpr::model
