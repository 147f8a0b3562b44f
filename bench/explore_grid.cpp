// ExploreEngine throughput bench: runs the same deterministic what-if
// sweep (full proxy subset x the built-in KNL variant grid) over a
// two-dimensional (kernel-jobs x machine-jobs) ladder, reports the
// wall-clock speedup over the serial (1, 1) baseline, and verifies that
// EVERY point produced byte-identical JSON — the explore grid inherits
// the StudyEngine guarantee that both fan-out axes are pure reorderings.
// It also prints the SimCache hit rate: variants that leave the cache
// geometry untouched must ride the base machine's hierarchy replays, so
// the sweep's simulation cost stays near the baseline study's.
//
//   ./build/explore_grid [--kernels A,B,...] [--scale S] [--trace-refs N]
//                        [--jobs 1,2,4,8] [--kernel-jobs 1,2,4]
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "io/explore_json.hpp"
#include "study/explore.hpp"

int main(int argc, char** argv) {
  using namespace fpr;
  using bench::parse_ladder;

  study::ExploreConfig cfg;
  cfg.base = "KNL";  // built-in grid: 8 variants incl. both MCDRAM knobs
  cfg.scale = 0.2;
  cfg.threads = 1;
  cfg.trace_refs = 400'000;
  cfg.kernels = {"AMG",  "HPL",  "XSBn", "BABL2", "MxIO",
                 "NGSA", "NekB", "CoMD", "SW4L",  "MiFE"};
  std::vector<unsigned> jobs_ladder = {1, 2, 4, 8};
  std::vector<unsigned> kernel_jobs_ladder = {1, 2, 4};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (bench::parse_measure_option(argc, argv, i, cfg)) continue;
    if (arg == "--jobs") {
      jobs_ladder = parse_ladder(arg, bench::option_value(argc, argv, i));
    } else if (arg == "--kernel-jobs") {
      kernel_jobs_ladder =
          parse_ladder(arg, bench::option_value(argc, argv, i));
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return 2;
    }
  }
  for (auto* ladder : {&jobs_ladder, &kernel_jobs_ladder}) {
    if (ladder->empty() || ladder->front() != 1) {
      ladder->insert(ladder->begin(), 1);
    }
  }

  std::cout << "ExploreEngine what-if grid throughput (the Sec. VII "
               "design-space sweep, parallelized)\n\n";
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "host: " << hw << " hardware thread(s); " << cfg.kernels.size()
            << " kernel(s) x (base + built-in " << cfg.base
            << " grid), trace_refs=" << cfg.trace_refs << "\n\n";

  TextTable table({"KernelJobs", "Jobs", "Wall[s]", "Speedup", "SimHit%",
                   "Identical"});
  double base_seconds = 0.0;
  std::string base_json;
  for (const unsigned kernel_jobs : kernel_jobs_ladder) {
    for (const unsigned jobs : jobs_ladder) {
      auto run_cfg = cfg;
      run_cfg.jobs = jobs;
      run_cfg.kernel_jobs = kernel_jobs;
      WallTimer timer;
      study::ExploreEngine engine(run_cfg);
      const auto results = engine.run();
      const double seconds = timer.seconds();
      const std::string json = io::dump(io::to_json(results));
      if (kernel_jobs == 1 && jobs == 1) {
        base_seconds = seconds;
        base_json = json;
      }
      const auto& st = engine.stats();
      const double total =
          static_cast<double>(st.sim_hits + st.sim_misses);
      table.row()
          .integer(kernel_jobs)
          .integer(jobs)
          .num(seconds, 3)
          .num(base_seconds > 0 ? base_seconds / seconds : 1.0, 2)
          .num(total > 0 ? 100.0 * static_cast<double>(st.sim_hits) / total
                         : 0.0,
               1)
          .cell(json == base_json ? "yes" : "NO")
          .done();
      if (json != base_json) {
        std::cerr << "[bench] DETERMINISM VIOLATION at kernel_jobs="
                  << kernel_jobs << " jobs=" << jobs << "\n";
        return 1;
      }
    }
  }
  table.print(std::cout);

  if (hw < 4) {
    std::cout << "\n(host has < 4 hardware threads; speedups need a >= "
                 "4-core machine)\n";
  }
  return 0;
}
