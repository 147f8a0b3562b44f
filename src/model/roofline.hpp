// Roofline analysis (Fig. 5): arithmetic intensity vs. achieved Gflop/s
// against the machine's compute and bandwidth ceilings.
#pragma once

#include <string>
#include <vector>

#include "arch/cpu_spec.hpp"
#include "model/exec_model.hpp"
#include "kernels/workload.hpp"

namespace fpr::model {

struct RooflinePoint {
  std::string name;
  double arithmetic_intensity = 0.0;  ///< flop / off-chip byte
  double achieved_gflops = 0.0;
  double attainable_gflops = 0.0;  ///< min(peak, AI * BW)
  bool memory_side = false;  ///< the bandwidth roof binds at this AI
};

/// The machine's ridge point (flop/byte where the roofs intersect),
/// using the dominant-precision peak of the given workload mix.
double ridge_point(const arch::CpuSpec& cpu, bool fp64_dominant);

/// Place one evaluated kernel on the roofline of `cpu`. The op tally is
/// resolved for the machine (kernels::WorkloadMeasurement::ops_on, the
/// same view the evaluation used for `ev`), and the bandwidth roof is the
/// modeled sustained bandwidth of this workload on this machine
/// (MemoryProfile::effective_bw_gbs) — on BDW that equals the flat
/// dram_bw_gbs roof, on the Phis it reflects the MCDRAM cache mode.
RooflinePoint roofline_point(const arch::CpuSpec& cpu,
                             const kernels::WorkloadMeasurement& w,
                             const MemoryProfile& mem, const EvalResult& ev);

/// Ceiling value at a given arithmetic intensity. `bw_gbs` is the
/// bandwidth roof; 0 (the default) uses the machine's flat DRAM
/// bandwidth, the classic single-roof chart.
double attainable(const arch::CpuSpec& cpu, double ai, bool fp64_dominant,
                  double bw_gbs = 0.0);

}  // namespace fpr::model
