// Quickstart: run one instrumented proxy kernel, inspect its operation
// mix, and ask the machine model how it would perform on the paper's
// three machines.
//
//   $ ./quickstart [kernel-abbrev]   (default: AMG)
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/table.hpp"
#include "common/units.hpp"
#include "kernels/kernel.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"
#include "arch/machines.hpp"

int main(int argc, char** argv) {
  using namespace fpr;
  const std::string abbrev = argc > 1 ? argv[1] : "AMG";

  // 1. Run the kernel with instrumentation (the SDE step).
  // An unknown abbreviation is a usage error (exit 2), not an abort.
  std::unique_ptr<kernels::ProxyKernel> kernel;
  try {
    kernel = kernels::make(abbrev);
  } catch (const std::invalid_argument& e) {
    std::cerr << "quickstart: " << e.what() << "\n"
              << "usage: quickstart [kernel-abbrev]\n";
    return 2;
  }
  std::cout << "Running " << kernel->info().name << " ("
            << kernel->info().paper_input << ")...\n";
  kernels::RunConfig cfg;
  cfg.scale = 0.4;
  const auto meas = kernel->run(cfg);

  std::cout << "  verified:      " << (meas.verified ? "yes" : "no") << "\n"
            << "  host time:     " << fmt_double(meas.host_seconds, 4)
            << " s (assay region only)\n"
            << "  op mix:        FP64 "
            << fmt_double(meas.ops.fp64_share() * 100, 1) << "% | FP32 "
            << fmt_double(meas.ops.fp32_share() * 100, 1) << "% | INT "
            << fmt_double(meas.ops.int_share() * 100, 1) << "%\n"
            << "  paper-scale:   " << format_count(double(meas.ops.fp_total()))
            << "flop, working set " << format_bytes(meas.working_set_bytes)
            << "\n\n";

  // 2. Ask the machine model about the paper's three machines.
  std::cout << "Machine model projection (paper-scale input):\n";
  for (const auto& cpu : arch::all_machines()) {
    const auto mem = model::profile_memory(cpu, meas);
    const auto ev = model::evaluate_at_turbo(cpu, meas, mem);
    std::cout << "  " << cpu.short_name << ": t2sol "
              << fmt_double(ev.seconds, 3) << " s, "
              << fmt_double(ev.gflops, 1) << " Gflop/s ("
              << fmt_double(ev.pct_of_peak, 1) << "% of peak), "
              << fmt_double(ev.mem_throughput_gbs, 1) << " GB/s, "
              << model::to_string(ev.bound) << "-bound\n";
  }
  std::cout << "\nTry: ./quickstart HPL   (the compute-bound outlier)\n"
            << "     ./quickstart XSBn  (gather/latency-bound)\n";
  return 0;
}
