// ParetoEngine: multi-objective search over the machine design space.
//
// The explorer scores a hand-enumerated grid; the Pareto engine *composes*
// transforms from the derive_variant grammar — under an area/TDP budget
// box (arch::variant_budget) — and keeps the non-dominated frontier over
// the procurement objectives (geomean time-to-solution, geomean
// energy-to-solution, mean Fig. 7 site projection). Dominance-based
// pruning of the candidate stream follows the solution-dominance framing
// of Guns et al. (see PAPERS.md).
//
// The search is a seeded, deterministic hill-climb with an NSGA-style
// non-dominated archive:
//
//   seed round   the base machine, the built-in grid, and every single
//                move;
//   round r      every archive member composed with every move (depth-
//                capped), plus `explorers` seeded random walks
//                (common/rng.hpp — no wall-clock, no random_device);
//                candidates are deduplicated by canonical resolved
//                machine across the whole run, budget-filtered, then
//                scored as one batch by the shared
//                study::VariantEvaluator and merged into the archive in
//                generation order.
//
// Candidate generation, dedup, filtering, and the merge are all
// sequential and jobs-independent. Scoring replays the traces of each
// new cache geometry once, over --jobs workers, and scores serially.
// The frontier (sorted by objective vector, then spec) is therefore
// byte-identical once serialized for every --jobs value — the same
// guarantee the study and explore pipelines carry.
//
// Each batch also hands the evaluator its candidates composed with the
// moves that change only the last cache level (mcdram-cap) as siblings,
// where the next round could admit the composition: the passes that
// replay a candidate fill those last levels too, so the next round,
// which proposes exactly those compositions, replays less.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "arch/variant.hpp"
#include "study/variant_eval.hpp"

namespace fpr::study {

/// Search objectives. All are minimized internally; `site` (a
/// percent-of-peak, higher is better) enters the objective vector
/// negated.
enum class Objective { time, energy, site };

[[nodiscard]] std::string_view to_string(Objective o);
/// Parses "time" / "energy" / "site"; throws std::invalid_argument.
[[nodiscard]] Objective objective_from_string(std::string_view name);

/// One frontier member: the full scorecard, its budget position, and its
/// objective vector (cfg.objectives order, minimized, site negated).
struct ParetoPoint {
  VariantScore score;
  arch::ResourceBudget budget;
  std::vector<double> objectives;

  [[nodiscard]] const std::string& spec() const {
    return score.variant.spec;
  }
  [[nodiscard]] const std::string& name() const { return score.name(); }
};

/// True when `a` Pareto-dominates `b`: no worse in every component and
/// strictly better in at least one (equal vectors dominate neither way).
[[nodiscard]] bool dominates(const std::vector<double>& a,
                             const std::vector<double>& b);

/// Indices (in input order) of the non-dominated subset of `objectives`.
/// The returned *set* is invariant to any permutation of the input —
/// the property the visit-order tests pin down.
[[nodiscard]] std::vector<std::size_t> non_dominated(
    const std::vector<std::vector<double>>& objectives);

/// Candidate-stream and scoring counters, identical for every --jobs.
struct ParetoStats {
  std::uint64_t generated = 0;    ///< specs proposed (before any filter)
  std::uint64_t deduped = 0;      ///< dropped: canonical machine seen
  std::uint64_t invalid = 0;      ///< dropped: derive_variant rejected
  std::uint64_t over_budget = 0;  ///< dropped: outside the budget box
  std::uint64_t evaluated = 0;    ///< candidates actually scored
  std::uint64_t rounds = 0;       ///< batches executed (seed round incl.)
  EngineStats measurement;        ///< the one-time measurement phase
  EvaluatorStats evaluator;       ///< scoring-side memo, replay-pass and
                                  ///< sibling-fill counters
};

struct ParetoConfig : MeasureConfig {
  /// Base machine short name (a Table I machine: KNL, KNM, or BDW).
  std::string base = "KNL";
  /// Seed of the explorer walks (independent of the kernel-input seed).
  std::uint64_t search_seed = 2019;
  /// Expansion rounds after the seed batch.
  unsigned rounds = 3;
  /// Seeded random walks proposed per expansion round.
  unsigned explorers = 16;
  /// Maximum transforms composed into one candidate spec.
  unsigned max_depth = 4;
  /// Budget box (defaults: no bigger, no hotter than the base).
  arch::BudgetLimits budget;
  /// Objective vector (order defines the frontier sort); must be
  /// non-empty and duplicate-free.
  std::vector<Objective> objectives = {Objective::time, Objective::energy,
                                       Objective::site};
};

/// The pareto golden's configuration (tests/golden/pareto_snapshot.json),
/// which is CI's pareto smoke run: `fpr pareto --base KNL --kernel
/// AMG,HPL,XSBn,BABL2 --scale 0.2 --trace-refs 120000 --rounds 2
/// --threads 1`, every other option at its default.
[[nodiscard]] ParetoConfig golden_pareto_config();

struct ParetoResults {
  std::string base;  ///< base machine short name
  arch::BudgetLimits budget;
  std::vector<Objective> objectives;
  /// The non-dominated archive, sorted by objective vector then spec.
  std::vector<ParetoPoint> frontier;
};

class ParetoEngine {
 public:
  explicit ParetoEngine(ParetoConfig cfg,
                        StudyEngine::KernelFactory factory = nullptr);

  /// Run the search. Call at most once per engine. Throws
  /// std::invalid_argument for an unknown base machine or a degenerate
  /// configuration (no objectives, duplicate objectives, zero depth).
  [[nodiscard]] ParetoResults run();

  /// Valid after run() returns.
  [[nodiscard]] const ParetoStats& stats() const { return stats_; }

 private:
  ParetoConfig cfg_;
  StudyEngine::KernelFactory factory_;
  ParetoStats stats_;
};

}  // namespace fpr::study
