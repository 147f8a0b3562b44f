// Workload descriptions: what a proxy kernel *did* (measured operation
// counts, traffic, working set) plus its static traits (vectorization
// efficiency, serial fraction, latency sensitivity). These are the inputs
// the execution-time model combines with a CpuSpec.
//
// This lives in kernels/ (it moved from model/ when the layering gate
// landed): a kernel *produces* a WorkloadMeasurement, the model layer
// above *consumes* it, so the type belongs to the producer's layer —
// otherwise every kernel would have to include model/ headers, an
// upward edge the architecture DAG forbids.
#pragma once

#include <cstdint>
#include <string>

#include "counters/op_tally.hpp"
#include "memsim/trace_gen.hpp"

namespace fpr::kernels {

/// Per-architecture-family adjustments to the measured operation counts.
/// The paper observes a few proxies execute materially different op
/// totals on Phi vs BDW (Sec. IV-B: Laghos runs ~2x the FP64 ops on
/// KNL/KNM; Sec. IV-A: Intel's HPCG binary for Phi issues far more
/// integer ops). Kernels that exhibit this carry the multiplier here.
struct PhiOpAdjust {
  double fp64 = 1.0;
  double fp32 = 1.0;
  double int_ops = 1.0;
};

/// Static characteristics of a kernel that the model cannot derive from
/// counts alone. One record per kernel; values are calibrated once
/// against the paper's Table IV and set, with their rationale, in the
/// kernel's run function.
struct KernelTraits {
  /// Fraction of FP peak the kernel's hot loops reach when fully
  /// compute-bound (vectorization + ILP quality).
  double vec_eff = 0.3;
  /// Same for the integer pipes.
  double int_eff = 0.3;
  /// Fraction of off-chip references that are serialized (dependent
  /// loads: pointer chasing, fine-grain gather). Drives the latency term.
  double latency_dep_fraction = 0.0;
  /// Fraction of total kernel CPU work that does not parallelize
  /// (Amdahl). Scales with 1/f like all core work.
  double serial_fraction = 0.01;
  /// Bytes written to storage by the kernel (MACSio). The I/O path is
  /// CPU-frequency bound (the paper's Sec. IV-E observation).
  double io_write_bytes = 0.0;
  /// Phi-specific op-count multipliers (see PhiOpAdjust).
  PhiOpAdjust phi_adjust{};
  /// Penalty multiplier for narrow in-order Phi cores on branchy scalar
  /// code (NGSA et al. run far *slower* on Phi than BDW despite more
  /// cores). Applies to the integer/scalar and I/O terms.
  double phi_scalar_penalty = 1.0;
  /// FP-side efficiency divisor on the Phis: beyond the global
  /// front-end derate (CpuSpec::fpu_issue_eff), many kernels lose
  /// additional ground on the 2-wide Silvermont-based cores (gathers,
  /// short trip counts, unaligned accesses). Calibrated per kernel from
  /// Table IV's achieved-rate ratio between BDW and KNL.
  double phi_vec_penalty = 1.0;
  /// Extra latency multiplier on the Phis for dependent access chains.
  /// Cache-mode misses pay MCDRAM tag probes before DDR, and the in-order
  /// cores cannot speculate past a serial sweep — HPCG's defining problem
  /// on these machines (Sec. IV-C/IV-E).
  double phi_latency_penalty = 1.0;
  /// True only for kernels whose FP32 work flows through MKL-DNN's
  /// VNNI FMA-paired path (CANDLE-class DL workloads). Generic FP32
  /// vector code cannot dual-pump KNM's VNNI units and sees only the
  /// single-issue SP rate.
  bool uses_vnni = false;
  /// SDE counts vector-integer *lanes* (the paper notes granularity "as
  /// low as 1-bit per operand"), inflating the Fig. 1 integer tallies
  /// far beyond issued uops. Kernels that report lane-inflated counts
  /// set the inflation factor here so the time model can divide it back
  /// out (otherwise the int term would exceed hardware issue limits).
  double int_lane_inflation = 1.0;
};

/// The measured facts about one kernel execution (assay region only).
struct WorkloadMeasurement {
  std::string name;                  ///< kernel short name, e.g. "AMG"
  counters::OpTally ops;             ///< measured operation counts
  double host_seconds = 0.0;         ///< wall time of the assay region
  std::uint64_t working_set_bytes = 0;  ///< resident field data (total)
  memsim::AccessPatternSpec access;  ///< total-footprint access pattern
  KernelTraits traits;
  bool verified = false;             ///< kernel self-check passed
  double checksum = 0.0;
  /// Factor by which the measured (run-scale) counts were multiplied to
  /// reach paper scale; divide `ops` by it to recover raw counts.
  double ops_scale_to_paper = 1.0;

  /// Op counts as seen on a machine (applies Phi adjustments).
  [[nodiscard]] counters::OpTally ops_on(bool is_phi) const {
    if (!is_phi) return ops;
    counters::OpTally t = ops;
    t.fp64 = static_cast<std::uint64_t>(
        static_cast<double>(t.fp64) * traits.phi_adjust.fp64);
    t.fp32 = static_cast<std::uint64_t>(
        static_cast<double>(t.fp32) * traits.phi_adjust.fp32);
    t.int_ops = static_cast<std::uint64_t>(
        static_cast<double>(t.int_ops) * traits.phi_adjust.int_ops);
    return t;
  }
};

}  // namespace fpr::kernels
