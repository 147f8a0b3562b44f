#include "arch/cpu_spec.hpp"

#include <algorithm>
#include <cmath>

namespace fpr::arch {

double CpuSpec::peak_gflops(Precision p, double ghz) const {
  const FpuConfig& fpu = p == Precision::fp64 ? fp64_fpu : fp32_fpu;
  return static_cast<double>(cores) * ghz *
         static_cast<double>(fpu.flops_per_cycle(p));
}

double CpuSpec::peak_giops(double ghz) const {
  return static_cast<double>(cores) * ghz *
         static_cast<double>(int_ops_per_cycle);
}

std::vector<FreqState> CpuSpec::frequency_sweep() const {
  std::vector<FreqState> states;
  states.reserve(freq_states_ghz.size() + 1);
  for (double f : freq_states_ghz) states.push_back({f, false});
  // The paper's pessimistic turbo assumption: +100 MHz across all cores.
  states.push_back({freq_states_ghz.back() + 0.1, true});
  return states;
}

void CpuSpec::validate() const {
  auto fail = [this](const char* what) {
    throw std::invalid_argument(short_name + ": " + what);
  };
  if (cores <= 0) fail("cores must be positive");
  if (smt <= 0) fail("smt must be positive");
  if (base_ghz <= 0.0 || turbo_ghz < base_ghz) fail("bad frequencies");
  if (peak_ref_ghz <= 0.0 || peak_ref_ghz > turbo_ghz)
    fail("peak reference frequency out of range");
  if (freq_states_ghz.empty()) fail("need at least one frequency state");
  if (!std::is_sorted(freq_states_ghz.begin(), freq_states_ghz.end()))
    fail("frequency states must be ascending");
  if (freq_states_ghz.back() > base_ghz + 1e-9)
    fail("throttle states must not exceed base frequency");
  if (dram_bw_gbs <= 0.0) fail("DRAM bandwidth required");
  if (has_mcdram() && mcdram_bw_gbs <= dram_bw_gbs)
    fail("MCDRAM must be faster than DRAM");
  if (has_mcdram() && !(mcdram_hit_eff > 0.0 && mcdram_hit_eff <= 1.0))
    fail("mcdram_hit_eff must be in (0, 1]");
  if (fp64_fpu.flops_per_cycle(Precision::fp64) <= 0)
    fail("FP64 FPU configuration empty");
  if (fp32_fpu.flops_per_cycle(Precision::fp32) <= 0)
    fail("FP32 FPU configuration empty");
  if (int_ops_per_cycle <= 0) fail("integer throughput required");
  if (fpu_issue_eff <= 0.0 || fpu_issue_eff > 1.0)
    fail("fpu_issue_eff must be in (0, 1]");
  if (dram_latency_ns <= 0.0) fail("latency model incomplete");
}

}  // namespace fpr::arch
