// Ablation: the hypothetical-processor experiment the paper motivates —
// what if KNL had KNM's FPU (and vice versa)? This isolates the FPU
// silicon redistribution from every other difference (cores, frequency,
// LLC) that separates the real chips.
#include <iostream>

#include "arch/machines.hpp"
#include "common/table.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"
#include "study/study.hpp"

int main() {
  using namespace fpr;
  std::cout << "Ablation - FPU silicon swap (KNL core, varying FPU; paper "
               "Sec. V / conclusion)\n\n";

  study::StudyConfig cfg;
  cfg.scale = 0.3;
  cfg.freq_sweep = false;
  cfg.trace_refs = 150'000;
  const auto results = study::run_study(cfg);

  const auto knl = arch::knl();
  const auto knl_knm_fpu = arch::with_fpu_of(arch::knl(), arch::knm());
  const auto knm_knl_fpu = arch::with_fpu_of(arch::knm(), arch::knl());

  TextTable t({"App", "KNL t[s]", "KNL+KNMfpu t[s]", "slowdown",
               "KNM t[s]", "KNM+KNLfpu t[s]", "speedup"});
  for (const auto& k : results.kernels) {
    const auto mem_knl = model::profile_memory(knl, k.meas, cfg.trace_refs);
    const auto mem_knm =
        model::profile_memory(arch::knm(), k.meas, cfg.trace_refs);
    const auto base_knl = model::evaluate_at_turbo(knl, k.meas, mem_knl);
    const auto swap_knl =
        model::evaluate_at_turbo(knl_knm_fpu, k.meas, mem_knl);
    const auto base_knm =
        model::evaluate_at_turbo(arch::knm(), k.meas, mem_knm);
    const auto swap_knm =
        model::evaluate_at_turbo(knm_knl_fpu, k.meas, mem_knm);
    t.row()
        .cell(k.info.abbrev)
        .num(base_knl.seconds, 3)
        .num(swap_knl.seconds, 3)
        .num(swap_knl.seconds / base_knl.seconds, 3)
        .num(base_knm.seconds, 3)
        .num(swap_knm.seconds, 3)
        .num(base_knm.seconds / swap_knm.seconds, 3)
        .done();
  }
  t.print(std::cout);
  std::cout
      << "\nReading: 'slowdown' ~1.0 everywhere except HPL-class kernels "
         "means the paper's\nconclusion holds — halving FP64 silicon "
         "costs almost nothing for real HPC workloads.\n";
  return 0;
}
