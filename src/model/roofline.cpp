#include "model/roofline.hpp"

#include <algorithm>

namespace fpr::model {

double attainable(const arch::CpuSpec& cpu, double ai, bool fp64_dominant,
                  double bw_gbs) {
  const double peak = cpu.peak_gflops(fp64_dominant ? arch::Precision::fp64
                                                    : arch::Precision::fp32);
  const double bw = bw_gbs > 0.0 ? bw_gbs : cpu.dram_bw_gbs;
  return std::min(peak, ai * bw);
}

double ridge_point(const arch::CpuSpec& cpu, bool fp64_dominant) {
  const double peak = cpu.peak_gflops(fp64_dominant ? arch::Precision::fp64
                                                    : arch::Precision::fp32);
  return peak / cpu.dram_bw_gbs;
}

RooflinePoint roofline_point(const arch::CpuSpec& cpu,
                             const kernels::WorkloadMeasurement& w,
                             const MemoryProfile& mem, const EvalResult& ev) {
  RooflinePoint p;
  p.name = w.name;
  // Resolve the tally for THIS machine: ev.gflops divides the resolved
  // (Phi-adjusted) flop count by the modeled time, so the AI numerator
  // must be the same count — pairing the raw BDW-side tally with a
  // Phi-side achieved point put Phi kernels above their own roof.
  const counters::OpTally ops = w.ops_on(cpu.has_mcdram());
  const bool fp64_dominant = ops.fp64 >= ops.fp32;
  const double flops = static_cast<double>(ops.fp_total());
  // AI against off-chip traffic (the paper's DRAM-side definition on the
  // BDW reference; memory-side traffic on the Phis).
  const double bytes = std::max(1.0, mem.offchip_bytes);
  p.arithmetic_intensity = flops / bytes;
  p.achieved_gflops = ev.gflops;
  p.attainable_gflops = attainable(cpu, p.arithmetic_intensity, fp64_dominant,
                                   mem.effective_bw_gbs);
  // Memory-side iff the bandwidth roof binds at this AI.
  const double peak = cpu.peak_gflops(fp64_dominant ? arch::Precision::fp64
                                                    : arch::Precision::fp32);
  p.memory_side = p.attainable_gflops < peak;
  return p;
}

}  // namespace fpr::model
