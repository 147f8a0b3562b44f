// VariantEvaluator: the incremental half of the design-space machinery.
//
// The old explore pipeline paid one StudyEngine (kernel, machine) stage
// per variant — O(variants × kernels) memory simulations and a
// StudyResults that grew with the grid. The evaluator splits that into
// two phases:
//
//  1. a one-time *measurement phase*: every selected kernel runs
//     instrumented exactly once (a StudyEngine over the base machine
//     alone), and the base machine's hierarchy replays land in a
//     SimCache the evaluator keeps alive;
//  2. batch *scoring*: evaluate(variants) takes memory profiles from a
//     model-level memo keyed by arch::memory_model_digest, so
//     bandwidth/TDP/FPU respins reuse the base profiles outright. A
//     geometry-changing variant (cores, capacities, associativities)
//     needs one hierarchy replay per kernel: each batch replays every
//     such trace once, fanned over cfg.jobs workers, through the shared
//     SimCache. Replays that differ only in the last cache level share
//     one pass (memsim::SimCache::prefix_key), and a pass also fills the
//     last levels of any *siblings* the caller supplies, so a later batch
//     finds those geometries simulated. The compute-side model
//     (model::evaluate_at_turbo) then runs serially per variant, because
//     it is cheap pure arithmetic.
//
// Scoring reproduces the monolithic pipeline's arithmetic exactly —
// same model calls, same inputs, same order — which is what lets the
// rewired ExploreEngine keep the golden explore snapshot byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/variant.hpp"
#include "memsim/sim_cache.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"
#include "study/study_engine.hpp"

namespace fpr::study {

/// One kernel evaluated on one variant, plus its deltas vs the base
/// machine (ratios < 1 mean the variant is better).
struct KernelProjection {
  std::string abbrev;
  model::MemoryProfile mem;
  model::EvalResult perf;
  double time_ratio = 1.0;     ///< seconds / base seconds
  double energy_ratio = 1.0;   ///< (power * seconds) / base energy
  double fp64_pct_peak = 0.0;  ///< achieved FP64 as % of the variant's peak
};

/// One variant's full scorecard over the kernel selection.
struct VariantScore {
  arch::MachineVariant variant;  ///< spec "" = the base machine itself
  std::vector<KernelProjection> kernels;
  double geomean_time_ratio = 1.0;    ///< time-to-solution vs base
  double geomean_energy_ratio = 1.0;  ///< energy-to-solution vs base
  double mean_fp64_pct_peak = 0.0;    ///< over kernels with FP64 work
  double site_pct_peak = 0.0;  ///< Fig. 7 projection, averaged over sites

  [[nodiscard]] const std::string& name() const {
    return variant.cpu.short_name;
  }
};

/// Geometric mean of per-kernel ratios. Every input must be finite and
/// > 0 — std::log(0) would otherwise poison the whole aggregate with
/// -inf silently; a zero or non-finite ratio means a model bug upstream,
/// so this throws std::domain_error naming the offending value instead.
double geomean_ratio(const std::vector<double>& ratios);

/// Scoring-side counters (the measurement phase reports EngineStats).
struct EvaluatorStats {
  std::uint64_t evaluations = 0;  ///< evaluate() calls completed
  std::uint64_t memo_hits = 0;    ///< profile sets served from the memo
  std::uint64_t memo_misses = 0;  ///< profile sets computed (once per
                                  ///< distinct memory-model digest)
  std::uint64_t replays = 0;        ///< hierarchy replay passes run
  std::uint64_t sibling_fills = 0;  ///< (sibling, kernel) replays they fill
};

class VariantEvaluator {
 public:
  /// The measurement pass the evaluator runs once over the base.
  using Config = MeasureConfig;

  /// Runs the measurement phase (throws whatever the kernel runs throw).
  VariantEvaluator(arch::CpuSpec base, const Config& cfg,
                   StudyEngine::KernelFactory factory = nullptr);

  /// Score a batch of variants against the measured base; the scores
  /// come back in input order. Every `cpu` must be derived from this
  /// evaluator's base machine (arch::derive_variant); the base itself is
  /// the empty spec. The batch replays each trace its new memory models
  /// need once, on up to cfg.jobs workers, and counts memo hits and
  /// misses as a one-at-a-time loop over the batch would. Replays whose
  /// prefix keys match share one pass. A `siblings` machine (derived
  /// from the base too) is never scored, memoized or replayed alone: a
  /// pass that shares the prefix of one of its replays also fills that
  /// replay's SimCache entry, so scoring it later replays nothing.
  /// Thread-safe: concurrent calls take turns on the memo.
  [[nodiscard]] std::vector<VariantScore> evaluate(
      const std::vector<arch::MachineVariant>& variants,
      const std::vector<arch::CpuSpec>& siblings = {}) const;

  /// Score one variant: a batch of one.
  [[nodiscard]] VariantScore evaluate(const arch::MachineVariant& variant) const;

  /// True when `b` differs from `a` only in the last cache level: for
  /// every kernel, `b`'s replay has the prefix key of `a`'s but a key of
  /// its own, so a pass replaying `a` can fill `b` as a sibling.
  [[nodiscard]] bool is_sibling(const arch::CpuSpec& a,
                                const arch::CpuSpec& b) const;

  [[nodiscard]] const arch::CpuSpec& base() const { return base_; }
  [[nodiscard]] std::size_t kernel_count() const { return kernels_.size(); }

  /// Measurement-phase counters (kernel_runs == kernel_count()).
  [[nodiscard]] const EngineStats& measurement_stats() const {
    return measurement_stats_;
  }
  /// Scoring-side counters; identical for every cfg.jobs.
  [[nodiscard]] EvaluatorStats stats() const;
  /// The shared hierarchy-replay cache's counters (measurement + scoring).
  [[nodiscard]] memsim::SimCache::Stats sim_stats() const {
    return sim_cache_->stats();
  }

 private:
  /// Everything evaluate() needs per kernel, captured once.
  struct KernelBase {
    kernels::KernelInfo info;
    kernels::WorkloadMeasurement meas;
    model::EvalResult perf;  ///< on the base machine
  };
  using ProfileSet = std::vector<model::MemoryProfile>;  // kernel order
  /// The hierarchy replay profile_memory runs for kernel `k` on a cpu:
  /// the per-core slice it replays and its SimCache key and prefix key.
  struct Replay {
    memsim::AccessPatternSpec slice;
    std::string key;
    std::string prefix;
  };

  [[nodiscard]] Replay replay_of(const arch::CpuSpec& cpu,
                                 std::size_t k) const;

  /// The profile set of each variant, in input order, replaying what
  /// the memo lacks (and filling `siblings` on the way).
  [[nodiscard]] std::vector<std::shared_ptr<const ProfileSet>> profiles_for(
      const std::vector<arch::MachineVariant>& variants,
      const std::vector<arch::CpuSpec>& siblings) const;
  [[nodiscard]] VariantScore score_variant(const arch::MachineVariant& variant,
                                           const ProfileSet& profiles) const;

  arch::CpuSpec base_;
  std::uint64_t trace_refs_ = model::kDefaultTraceRefs;
  unsigned jobs_ = 1;  ///< replay workers per batch (cfg.jobs resolved)
  std::vector<KernelBase> kernels_;
  std::shared_ptr<memsim::SimCache> sim_cache_;
  EngineStats measurement_stats_;

  mutable std::mutex mu_;  // guards memo_ and stats_
  mutable std::unordered_map<std::string, std::shared_ptr<const ProfileSet>>
      memo_;
  mutable EvaluatorStats stats_;
};

}  // namespace fpr::study
