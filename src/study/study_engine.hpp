// StudyEngine: the study pipeline decomposed into schedulable jobs.
//
// The evaluation grid is one instrumented kernel run per kernel (the
// paper's SDE/PCM step) feeding three per-machine stages (memory
// simulation + model evaluation + frequency sweep) per kernel. One
// engine-owned pool of cfg.kernel_jobs + cfg.jobs participants runs both
// axes, each participant in one role:
//
//  - producers (cfg.kernel_jobs of them) claim kernels from one cursor
//    and run each in the producer's own ExecutionContext (a private
//    worker pool of cfg.threads workers plus a run-local counter sink),
//    so concurrent runs share no mutable state. A finished run flags its
//    kernel measured;
//  - consumers (cfg.jobs of them) claim (kernel, machine) units from a
//    second cursor, in kernel-major order, and wait on the unit's kernel
//    flag before running its stage — a pure function of (CpuSpec,
//    measurement).
//
// Guarantees:
//  - each kernel's instrumented run executes exactly once, shared by all
//    machine stages (stats().kernel_runs counts them);
//  - results are slot-indexed, so ordering is deterministic — identical
//    across any (kernel_jobs, jobs) combination, and byte-identical once
//    serialized when cfg.canonical_timing strips the only wall-clock
//    field (op counts are analytic and chunking is static, so the
//    parallel engine is a pure reordering of the serial pipeline);
//  - an exception from a kernel run or a machine stage aborts fail-fast:
//    every pending kernel flag is released, no further kernel runs or
//    stages start, and run() rethrows the first exception.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "kernels/kernel.hpp"
#include "study/study.hpp"

namespace fpr::study {

/// Execution counters for the run-count assertions in tests, the CLI's
/// summary headings and fprbench's counts.
struct EngineStats {
  std::uint64_t kernel_runs = 0;    ///< instrumented kernel executions
  std::uint64_t machine_evals = 0;  ///< completed (kernel, machine) stages
  std::uint64_t sim_hits = 0;       ///< memoized hierarchy replays reused
  std::uint64_t sim_misses = 0;     ///< hierarchy replays actually simulated
};

class StudyEngine {
 public:
  /// Source of kernels to run (tests inject counting/failing fakes).
  using KernelFactory =
      std::function<std::vector<std::unique_ptr<kernels::ProxyKernel>>()>;

  explicit StudyEngine(StudyConfig cfg, KernelFactory factory = nullptr);

  /// Execute the pipeline. Call at most once per engine.
  [[nodiscard]] StudyResults run();

  /// Valid after run() returns (or throws).
  [[nodiscard]] const EngineStats& stats() const { return stats_; }

 private:
  StudyConfig cfg_;
  KernelFactory factory_;
  EngineStats stats_;
};

/// The deterministic configuration behind tests/golden/study_snapshot.json:
/// a six-kernel subset covering every workload class at reduced scale,
/// single-threaded kernel runs (host-independent op counts), canonical
/// timing. Regenerate the snapshot with
/// `fpr study --golden --out tests/golden/study_snapshot.json`.
[[nodiscard]] StudyConfig golden_config();

}  // namespace fpr::study
