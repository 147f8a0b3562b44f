// The paper's Sec. III-A five-step measurement methodology, reproduced
// as library routines: parallelism search (step 2: best #processes /
// #threads), repeated performance runs taking the fastest of N
// (step 3), and the stability check that the fastest half of runs spread
// only a few percent (the paper reports 3.9% on average).
#pragma once

#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "kernels/kernel.hpp"

namespace fpr::study {

struct ParallelismChoice {
  unsigned threads = 0;      ///< best worker count found
  double best_seconds = 0.0; ///< fastest kernel time at that count
  std::vector<std::pair<unsigned, double>> tried;  ///< (threads, seconds)
};

/// Candidate worker counts for the step-2 search on a host with
/// `hw_threads` hardware threads: {1, hw/4, hw/2, hw, 2*hw} padded with
/// {1, 2, 4}, sorted and deduplicated. The padding guarantees at least
/// three distinct candidates even when hw_threads <= 2 would collapse
/// the ladder (the search must always compare under- and
/// over-subscription against the serial baseline).
std::vector<unsigned> parallelism_ladder(unsigned hw_threads);

/// Step 2: try several worker counts (including over-/under-subscription
/// relative to the host) and pick the best time-to-solution. `repeats`
/// runs per configuration, keeping the fastest (3 in the paper).
ParallelismChoice find_best_parallelism(const kernels::ProxyKernel& k,
                                        double scale = 0.3,
                                        int repeats = 2);

struct PerformanceRun {
  SampleSummary timing;   ///< over `repeats` runs; `best` is reported
  kernels::WorkloadMeasurement best_meas;
};

/// Step 3: execute the performance run — `repeats` trials (10 in the
/// paper), report the fastest and the spread statistics.
PerformanceRun performance_run(const kernels::ProxyKernel& k,
                               const kernels::RunConfig& cfg,
                               int repeats = 5);

}  // namespace fpr::study
