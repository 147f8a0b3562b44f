// ExploreEngine: the paper's closing what-if (Sec. VII / Fig. 7) made
// computable. The three Table I machines answer "how do these workloads
// run on the silicon Intel shipped?"; the explorer answers "how would
// they run on the silicon a site could have bought instead?" — a grid of
// derived machine variants (arch::derive_variant: fewer FP64 pipes, more
// bandwidth, more MCDRAM, more cores, a tighter TDP) swept over the
// whole proxy suite.
//
// Execution is the two-phase incremental pipeline: one
// study::VariantEvaluator measurement pass over the base machine (each
// kernel runs instrumented exactly once; one StudyEngine pool of
// cfg.kernel_jobs kernel-run and cfg.jobs machine-stage participants),
// then one batch evaluate() over the baseline and every variant, which
// replays each new cache geometry once across cfg.jobs workers and
// returns the scores in input order.
// Variants are deduplicated by canonical resolved machine
// (arch::canonical_cpu_digest), so order-equivalent compositions ("a+b"
// vs "b+a") and factor respellings are rejected as loudly as raw
// duplicates. Results are byte-identical across any (jobs, kernel_jobs),
// as for fpr study.
#pragma once

#include <string>
#include <vector>

#include "arch/variant.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"
#include "study/study_engine.hpp"
#include "study/variant_eval.hpp"

namespace fpr::study {

struct ExploreResults {
  std::string base;              ///< base machine short name
  VariantScore baseline;         ///< the base itself (ratios == 1)
  std::vector<VariantScore> variants;

  [[nodiscard]] const VariantScore* find(std::string_view name) const;
};

struct ExploreConfig : MeasureConfig {
  /// Base machine short name (a Table I machine: KNL, KNM, or BDW).
  std::string base = "KNL";
  /// Variant specs (arch::derive_variant grammar); empty = the built-in
  /// grid for the base (arch::builtin_variant_specs).
  std::vector<std::string> variants;
};

class ExploreEngine {
 public:
  explicit ExploreEngine(ExploreConfig cfg,
                         StudyEngine::KernelFactory factory = nullptr);

  /// Run the sweep. Call at most once per engine. Throws
  /// std::invalid_argument for an unknown base machine, a malformed or
  /// inconsistent variant spec, or variant specs that duplicate each
  /// other — textually or canonically (two spellings of one machine).
  [[nodiscard]] ExploreResults run();

  /// Valid after run() returns (or throws): measurement-phase counters
  /// (kernel_runs, the base machine_evals) with the hierarchy-replay
  /// hit/miss totals across measurement *and* variant scoring, plus one
  /// machine_eval per scored (kernel, variant) pair — the same grid the
  /// monolithic engine counted.
  [[nodiscard]] const EngineStats& stats() const { return stats_; }

 private:
  ExploreConfig cfg_;
  StudyEngine::KernelFactory factory_;
  EngineStats stats_;
};

/// The machines an explore run scores: slot 0 is the baseline (`base`
/// itself, spec ""), then one derived variant per spec, in order. Throws
/// std::invalid_argument for a spec arch::derive_variant rejects, a
/// repeated spec, or a spec that derives the same machine
/// (arch::canonical_cpu_digest) as an earlier spec or as the base.
[[nodiscard]] std::vector<arch::MachineVariant> explore_variants(
    const arch::CpuSpec& base, const std::vector<std::string>& specs);

/// The deterministic configuration behind
/// tests/golden/explore_snapshot.json: the study golden's six kernels at
/// its scale/seed/trace length, base KNL, the full built-in variant grid.
/// Regenerate the snapshot with
/// `fpr explore --golden --out tests/golden/explore_snapshot.json`.
[[nodiscard]] ExploreConfig golden_explore_config();

}  // namespace fpr::study
