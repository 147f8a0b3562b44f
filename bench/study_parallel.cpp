// StudyEngine throughput bench: runs the same deterministic study over a
// two-dimensional (kernel-jobs x machine-jobs) ladder and reports the
// wall-clock speedup over the serial (1, 1) baseline, verifying along
// the way that EVERY point produced byte-identical JSON (the engine's
// core guarantee: both fan-out axes are pure reorderings of the serial
// pipeline). Kernel runs execute in per-run ExecutionContexts, so the
// kernel-jobs axis is where the de-globalized counters/pool pay off; the
// machine-jobs axis parallelizes the memsim/model/freq-sweep stages as
// before. On a >= 4-core host the ladder demonstrates a >= 2x speedup;
// on smaller hosts it degenerates gracefully and says so.
//
//   ./build/study_parallel [--kernels A,B,...] [--scale S]
//                          [--trace-refs N] [--jobs 1,2,4,8]
//                          [--kernel-jobs 1,2,4,8]
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "io/study_json.hpp"
#include "study/study_engine.hpp"

int main(int argc, char** argv) {
  using namespace fpr;
  using bench::parse_ladder;

  study::StudyConfig cfg;
  cfg.scale = 0.2;
  cfg.threads = 1;  // keep each kernel run cheap and host-independent
  cfg.trace_refs = 400'000;
  cfg.canonical_timing = true;
  cfg.kernels = {"AMG",  "HPL",  "XSBn", "BABL2", "MxIO",
                 "NGSA", "NekB", "CoMD", "SW4L",  "MiFE"};
  std::vector<unsigned> jobs_ladder = {1, 2, 4, 8};
  std::vector<unsigned> kernel_jobs_ladder = {1, 2, 4, 8};

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
  // The (1, 1) baseline anchors both the speedup column and the
  // byte-identity check, so each axis must start at 1.
  for (auto* ladder : {&jobs_ladder, &kernel_jobs_ladder}) {
    if (ladder->empty() || ladder->front() != 1) {
      ladder->insert(ladder->begin(), 1);
    }
  }

  std::cout << "StudyEngine parallel throughput (the Sec. III-A pipeline, "
               "parallelized on both axes)\n\n";
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "host: " << hw << " hardware thread(s); "
            << cfg.kernels.size() << " kernel(s), trace_refs="
            << cfg.trace_refs << "\n\n";

  TextTable table({"KernelJobs", "Jobs", "Wall[s]", "Speedup", "Identical"});
  double base_seconds = 0.0;
  std::string base_json;
  for (const unsigned kernel_jobs : kernel_jobs_ladder) {
    for (const unsigned jobs : jobs_ladder) {
      auto run_cfg = cfg;
      run_cfg.jobs = jobs;
      run_cfg.kernel_jobs = kernel_jobs;
      WallTimer timer;
      study::StudyEngine engine(run_cfg);
      const auto results = engine.run();
      const double seconds = timer.seconds();
      const std::string json = io::dump(io::to_json(results));
      if (kernel_jobs == 1 && jobs == 1) {
        base_seconds = seconds;
        base_json = json;
      }
      table.row()
          .integer(kernel_jobs)
          .integer(jobs)
          .num(seconds, 3)
          .num(base_seconds > 0 ? base_seconds / seconds : 1.0, 2)
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
    std::cout << "\n(host has < 4 hardware threads; the >= 2x ladder "
                 "needs a >= 4-core machine)\n";
  }
  return 0;
}
