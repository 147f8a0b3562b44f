// Frequency explorer: the paper's Sec. IV-E boundedness diagnostic as an
// interactive tool. Runs a kernel, sweeps the core frequency on each
// machine (uncore fixed), and classifies the kernel as compute-, memory-,
// latency- or I/O-bound from the scaling curve.
//
//   $ ./frequency_explorer [kernel-abbrev]   (default: MxIO)
#include <cmath>
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
  const std::string abbrev = argc > 1 ? argv[1] : "MxIO";

  // An unknown abbreviation is a usage error (exit 2), not an abort.
  std::unique_ptr<kernels::ProxyKernel> kernel;
  try {
    kernel = kernels::make(abbrev);
  } catch (const std::invalid_argument& e) {
    std::cerr << "frequency_explorer: " << e.what() << "\n"
              << "usage: frequency_explorer [kernel-abbrev]\n";
    return 2;
  }
  std::cout << "Frequency-throttling study for " << kernel->info().name
            << " (cf. paper Fig. 6)\n\n";
  kernels::RunConfig cfg;
  cfg.scale = 0.35;
  const auto meas = kernel->run(cfg);

  for (const auto& cpu : arch::all_machines()) {
    const auto mem = model::profile_memory(cpu, meas);
    std::cout << cpu.name << ":\n";
    TextTable t({"Frequency", "t2sol [s]", "speedup vs lowest"});
    double slowest = 0.0;
    double first_t = 0.0, last_t = 0.0, first_f = 0.0, last_f = 0.0;
    for (const auto& fs : cpu.frequency_sweep()) {
      const auto ev = model::evaluate(cpu, fs.ghz, meas, mem);
      if (slowest == 0.0) {
        slowest = ev.seconds;
        first_t = ev.seconds;
        first_f = fs.ghz;
      }
      last_t = ev.seconds;
      last_f = fs.ghz;
      t.row()
          .cell(fmt_double(fs.ghz, 1) + " GHz" + (fs.turbo ? " +TB" : ""))
          .num(ev.seconds, 3)
          .num(slowest / ev.seconds, 3)
          .done();
    }
    t.print(std::cout);
    // Scaling exponent: 1.0 => perfectly frequency-bound, 0 => flat.
    const double gain = first_t / last_t;
    const double fratio = last_f / first_f;
    const double exponent = std::log(gain) / std::log(fratio);
    std::cout << "  frequency-scaling exponent: " << fmt_double(exponent, 2)
              << "  (" << (exponent > 0.7
                               ? "compute/CPU-bound"
                               : exponent > 0.3 ? "mixed"
                                                : "memory/latency-bound")
              << ")\n\n";
  }
  std::cout << "Paper observations to compare against: HPL ~1.0 on BDW but "
               "limited on KNL; AMG/MiFE become\ncompute-bound on the Phis "
               "(MCDRAM removes the memory wall); HPCG stays flat on the "
               "Phis;\nMACSio scales because Linux-kernel I/O work is "
               "frequency-bound (Sec. IV-E).\n";
  return 0;
}
