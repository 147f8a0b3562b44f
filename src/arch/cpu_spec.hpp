// Machine descriptions. A CpuSpec carries everything the paper's Table I
// reports for the three evaluation nodes (KNL, KNM, dual-socket BDW) plus
// the microarchitectural parameters the execution model needs (FPU port
// configuration, integer throughput, memory latency, cache geometry,
// frequency states for the Fig. 6 throttling study).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace fpr::arch {

enum class Precision { fp64, fp32 };

/// One class of SIMD floating-point execution resources in a core.
/// flops/cycle/core = units * lanes(precision) * 2 (FMA) * pump.
struct FpuConfig {
  int units = 0;        ///< number of vector pipes of this class
  int vector_bits = 0;  ///< register width serviced per pipe
  int pump = 1;         ///< >1 for double-pumped units (KNM VNNI)

  [[nodiscard]] constexpr int lanes(Precision p) const {
    return vector_bits / (p == Precision::fp64 ? 64 : 32);
  }
  [[nodiscard]] constexpr int flops_per_cycle(Precision p) const {
    return units * lanes(p) * 2 * pump;
  }
};

/// Core-frequency operating point used in the Fig. 6 throttling sweep.
struct FreqState {
  double ghz = 0.0;
  bool turbo = false;  ///< the paper's pessimistic "+TB = +100 MHz" point
};

struct CpuSpec {
  std::string name;        ///< "Knights Landing"
  std::string short_name;  ///< "KNL"
  std::string model;       ///< "7210F"

  int cores = 0;
  int smt = 1;             ///< hardware threads per core

  double base_ghz = 0.0;
  double turbo_ghz = 0.0;
  /// Frequency at which the Table I peak numbers hold (BDW quotes its
  /// AVX base frequency of 1.8 GHz; the Phis quote nominal base).
  double peak_ref_ghz = 0.0;
  /// Throttling states available below/at base (Fig. 6 x-axis).
  std::vector<double> freq_states_ghz;

  double tdp_w = 0.0;

  // Memory system (Table I; bandwidths are measured Triad numbers).
  double dram_gib = 0.0;
  double dram_bw_gbs = 0.0;
  double mcdram_gib = 0.0;     ///< 0 = no MCDRAM
  double mcdram_bw_gbs = 0.0;  ///< flat-mode Triad bandwidth
  /// Fraction of the flat-mode Triad bandwidth a cache-mode hit
  /// sustains (tag probes; calibrated to the paper's BabelStream 2 GiB
  /// points). Required in (0, 1] on an MCDRAM machine. Carried here —
  /// not keyed off the machine name — so derived variants
  /// (arch::derive_variant) inherit their base's efficiency.
  double mcdram_hit_eff = 0.0;
  double llc_mib = 0.0;

  // Cache geometry for the memory simulator.
  int l1_kib = 32;
  int l1_assoc = 8;
  int l2_kib_per_core = 0;
  int l2_assoc = 16;
  int llc_assoc = 16;

  // Execution resources.
  std::string isa;  ///< "AVX-512" / "AVX2"
  FpuConfig fp64_fpu;
  FpuConfig fp32_fpu;
  /// Fraction of the nominal FPU peak the front-end can actually feed
  /// (KNL's 2-wide decode struggles to keep both VPUs busy alongside
  /// loads; big OoO cores and KNM's single DP pipe sustain close to 1.0).
  double fpu_issue_eff = 1.0;
  /// Efficiency of *generic* (non-VNNI) single-precision vector code on
  /// the FP32 pipes. KNM's VNNI units execute plain SP vectors, but at
  /// single pump and with longer latency than a classic VPU.
  double fp32_generic_eff = 1.0;
  int int_ops_per_cycle = 0;  ///< per-core vector-integer throughput

  // Latency model parameters (ns to memory).
  double dram_latency_ns = 0.0;
  double mcdram_latency_ns = 0.0;

  /// Peak Gflop/s at frequency `ghz` across all cores.
  [[nodiscard]] double peak_gflops(Precision p, double ghz) const;

  /// Peak Gflop/s at the Table I reference frequency (the quoted number).
  [[nodiscard]] double peak_gflops(Precision p) const {
    return peak_gflops(p, peak_ref_ghz);
  }

  /// Peak integer Gop/s at frequency `ghz`.
  [[nodiscard]] double peak_giops(double ghz) const;

  /// True when the MCDRAM acts as a memory-side cache in front of DRAM.
  [[nodiscard]] bool has_mcdram() const { return mcdram_gib > 0.0; }

  /// All operating points for the frequency-scaling experiment:
  /// every throttled state plus base, plus the pessimistic turbo point.
  [[nodiscard]] std::vector<FreqState> frequency_sweep() const;

  /// Basic internal-consistency validation; throws std::invalid_argument.
  void validate() const;
};

}  // namespace fpr::arch
