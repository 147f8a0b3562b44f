// The three evaluation machines of the paper (Table I), plus a builder
// for hypothetical FPU redistributions used by the ablation benches
// ("what if KNL had KNM's FPU?" — the question the paper answers
// empirically by having both chips).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "arch/cpu_spec.hpp"

namespace fpr::arch {

/// Intel Xeon Phi 7210F (Knights Landing): 64 cores, 2x AVX-512 VPUs per
/// core (32 DP flop/cycle), 16 GiB MCDRAM in cache mode.
CpuSpec knl();

/// Intel Xeon Phi 7295 (Knights Mill): 72 cores, 1x AVX-512 DP pipe plus
/// dual double-pumped VNNI SP pipes (16 DP / 128 SP flop/cycle).
CpuSpec knm();

/// Dual-socket Xeon E5-2650v4 (Broadwell-EP): 2x12 cores, AVX2, peak
/// quoted at the 1.8 GHz AVX base frequency as in Table I.
CpuSpec bdw();

/// All three machines in paper order {KNL, KNM, BDW}.
std::vector<CpuSpec> all_machines();

/// The Table I machine whose short name is `short_name` (KNL, KNM, or
/// BDW); nullopt for any other name. Callers raise their own error.
std::optional<CpuSpec> find_machine(std::string_view short_name);

/// `base` with its floating-point silicon swapped for `fpu_donor`'s FPU
/// configuration — the hypothetical-processor ablation. Name becomes
/// "<base>+<donor>fpu".
CpuSpec with_fpu_of(const CpuSpec& base, const CpuSpec& fpu_donor);

}  // namespace fpr::arch
