// The execution-time model: combines a machine description, a measured
// workload, and its memory profile into a predicted kernel time and the
// derived metrics the paper reports (Gflop/s, % of peak, memory
// throughput, power, boundedness). Evaluated at any core frequency to
// reproduce the Fig. 6 throttling study (uncore — i.e. bandwidth — stays
// at full speed, as in the paper's methodology).
#pragma once

#include <string>

#include "arch/cpu_spec.hpp"
#include "model/memprofile.hpp"
#include "kernels/workload.hpp"

namespace fpr::model {

enum class Bound { compute, bandwidth, latency, io };

[[nodiscard]] std::string_view to_string(Bound b);

/// Tunable global constants of the model (not per-kernel).
struct ModelParams {
  /// Overlap between compute and streaming memory traffic: the in-flight
  /// fraction of t_mem hidden under compute (hardware prefetchers).
  double mem_overlap = 0.85;
  /// Effective outstanding misses for *dependent* access chains.
  double dep_mlp = 2.0;
  /// CPU-side I/O throughput per GHz (GB/s); the Linux-kernel-bound write
  /// path of Sec. IV-E (MACSio / dd observation).
  double io_gbs_per_ghz = 0.019;
  /// Idle power as a fraction of TDP.
  double idle_power_frac = 0.38;
};

struct EvalResult {
  // Component times (seconds).
  double t_fp64 = 0.0;
  double t_fp32 = 0.0;
  double t_int = 0.0;
  double t_compute = 0.0;  ///< sum of the three above, incl. serial part
  double t_mem = 0.0;
  double t_lat = 0.0;
  double t_io = 0.0;
  double seconds = 0.0;  ///< predicted kernel time-to-solution

  // Derived metrics.
  double gflops = 0.0;             ///< (FP64+FP32) per second
  double pct_of_peak = 0.0;        ///< vs dominant-precision Table I peak
  double mem_throughput_gbs = 0.0; ///< off-chip traffic / time (Fig. 4)
  double power_w = 0.0;
  Bound bound = Bound::bandwidth;
};

/// Predict the kernel time on `cpu` at core frequency `ghz`.
EvalResult evaluate(const arch::CpuSpec& cpu, double ghz,
                    const kernels::WorkloadMeasurement& w,
                    const MemoryProfile& mem, const ModelParams& params = {});

/// Evaluate at the machine's performance-run operating point (base
/// frequency + the paper's pessimistic +100 MHz turbo).
EvalResult evaluate_at_turbo(const arch::CpuSpec& cpu,
                             const kernels::WorkloadMeasurement& w,
                             const MemoryProfile& mem,
                             const ModelParams& params = {});

}  // namespace fpr::model
