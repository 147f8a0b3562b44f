// The study driver: executes the paper's measurement pipeline end to end.
// For each proxy kernel: run instrumented (the SDE/PCM step), simulate
// its memory behaviour per machine (the PCM step), evaluate the machine
// model at the performance operating point and across the frequency
// sweep (the Sec. III-A steps 3's performance/profiling/frequency runs).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/machines.hpp"
#include "kernels/kernel.hpp"
#include "memsim/sim_cache.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"

namespace fpr::study {

struct MachineResult {
  arch::CpuSpec cpu;
  model::MemoryProfile mem;
  model::EvalResult perf;  ///< at max frequency + turbo (performance run)
  std::vector<std::pair<arch::FreqState, model::EvalResult>> freq_sweep;
};

struct KernelResult {
  kernels::KernelInfo info;
  kernels::WorkloadMeasurement meas;
  std::vector<MachineResult> machines;  ///< KNL, KNM, BDW (paper order)

  [[nodiscard]] const MachineResult& on(std::string_view short_name) const;
};

/// The one measurement pass every engine starts from (Sec. III-A): which
/// kernels run instrumented, at what input scale, seed and thread count,
/// how long a trace each hierarchy replay draws, and how many workers
/// share the work. StudyConfig, ExploreConfig and ParetoConfig derive
/// from it; VariantEvaluator::Config is this struct itself.
struct MeasureConfig {
  /// Subset of kernel abbreviations to run (empty = all).
  std::vector<std::string> kernels;
  double scale = 0.3;    ///< kernel input scale multiplier, > 0
  unsigned threads = 0;  ///< worker threads per kernel run (0 = all)
  /// PRNG seed for the kernels' synthetic inputs (fixed => repeatable).
  std::uint64_t seed = 42;
  std::uint64_t trace_refs = model::kDefaultTraceRefs;  ///< trace length
  /// Engine workers for the per-machine (memsim + model + freq sweep)
  /// stages and for variant scoring (0 = hardware concurrency). Never
  /// changes the results, only the wall time.
  unsigned jobs = 1;
  /// Concurrent instrumented kernel runs (the paper's per-workload
  /// SDE/PCM stage; 0 = hardware concurrency). Each run executes in its
  /// own ExecutionContext — a private worker pool of `threads` workers
  /// plus a run-local counter sink — so concurrent runs cannot
  /// cross-contaminate assay deltas, and any value produces the same
  /// results byte for byte.
  unsigned kernel_jobs = 1;

  /// The per-kernel part: what each instrumented run is handed.
  [[nodiscard]] kernels::RunConfig run_config() const {
    return {threads, scale, seed};
  }
};

struct StudyConfig : MeasureConfig {
  bool freq_sweep = true;  ///< run the Fig. 6 frequency evaluation
  /// Zero out the wall-clock field (host_seconds) of every measurement.
  /// This makes serialized results byte-stable across runs and jobs
  /// counts — the mode `fpr study` and the golden snapshot use.
  bool canonical_timing = false;
  /// Machines to evaluate each kernel on (empty = the paper's three,
  /// arch::all_machines()). The explore engine sweeps derived variants
  /// through here; short names must be unique since KernelResult::on
  /// looks results up by them.
  std::vector<arch::CpuSpec> machines;
  /// Replay memo shared with the caller (null = the engine creates a
  /// private one per run). The incremental evaluator passes the cache it
  /// keeps across evaluate() calls, so variant scoring after the
  /// measurement phase reuses the hierarchy replays the study already
  /// paid for. Memoized entries equal fresh simulations byte for byte,
  /// so sharing never changes results.
  std::shared_ptr<memsim::SimCache> sim_cache;
};

struct StudyResults {
  std::vector<KernelResult> kernels;

  [[nodiscard]] const KernelResult* find(std::string_view abbrev) const;
};

}  // namespace fpr::study
