// Precision-migration study: "what performance impact can HPC users
// expect when migrating their code to future processors with a different
// distribution in floating-point precision support?" (the paper's intro
// question). Runs a chosen kernel, then compares KNL vs KNM and the two
// hypothetical FPU-swapped machines.
//
//   $ ./precision_migration [kernel-abbrev]   (default: CNDL)
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "arch/machines.hpp"
#include "common/table.hpp"
#include "kernels/kernel.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"

int main(int argc, char** argv) {
  using namespace fpr;
  const std::string abbrev = argc > 1 ? argv[1] : "CNDL";

  // An unknown abbreviation is a usage error (exit 2), not an abort.
  std::unique_ptr<kernels::ProxyKernel> kernel;
  try {
    kernel = kernels::make(abbrev);
  } catch (const std::invalid_argument& e) {
    std::cerr << "precision_migration: " << e.what() << "\n"
              << "usage: precision_migration [kernel-abbrev]\n";
    return 2;
  }
  std::cout << "Characterizing " << kernel->info().name << "...\n";
  kernels::RunConfig cfg;
  cfg.scale = 0.35;
  const auto meas = kernel->run(cfg);
  std::cout << "  FP64 share " << fmt_double(meas.ops.fp64_share() * 100, 1)
            << "%, FP32 share " << fmt_double(meas.ops.fp32_share() * 100, 1)
            << "%, INT share " << fmt_double(meas.ops.int_share() * 100, 1)
            << "%\n\n";

  // Candidate machines: the real twins plus FPU swaps.
  std::vector<arch::CpuSpec> candidates = {
      arch::knl(), arch::knm(), arch::with_fpu_of(arch::knl(), arch::knm()),
      arch::with_fpu_of(arch::knm(), arch::knl())};

  TextTable t({"Machine", "FP64 peak", "FP32 peak", "t2sol [s]",
               "Gflop/s", "bound"});
  double t_knl = 0.0, t_knm = 0.0;
  for (const auto& cpu : candidates) {
    const auto mem = model::profile_memory(cpu, meas);
    const auto ev = model::evaluate_at_turbo(cpu, meas, mem);
    if (cpu.short_name == "KNL") t_knl = ev.seconds;
    if (cpu.short_name == "KNM") t_knm = ev.seconds;
    t.row()
        .cell(cpu.short_name)
        .num(cpu.peak_gflops(arch::Precision::fp64), 0)
        .num(cpu.peak_gflops(arch::Precision::fp32), 0)
        .num(ev.seconds, 3)
        .num(ev.gflops, 1)
        .cell(std::string(model::to_string(ev.bound)))
        .done();
  }
  t.print(std::cout);

  const double delta = (t_knm / t_knl - 1.0) * 100.0;
  std::cout << "\nMigrating " << abbrev
            << " from the FP64-rich KNL to the FP64-poor KNM changes "
               "time-to-solution by "
            << fmt_double(delta, 1) << "%.\n"
            << (std::abs(delta) < 15.0
                    ? "Verdict: the double-precision silicon was an "
                      "embarrassment of riches for this workload.\n"
                    : "Verdict: this workload actually exercises the FPU "
                      "distribution - check the precision mix above.\n");
  return 0;
}
