#include "study/pareto.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "arch/machines.hpp"
#include "common/rng.hpp"

namespace fpr::study {

std::string_view to_string(Objective o) {
  switch (o) {
    case Objective::time:
      return "time";
    case Objective::energy:
      return "energy";
    case Objective::site:
      return "site";
  }
  throw std::invalid_argument("unknown Objective value");
}

Objective objective_from_string(std::string_view name) {
  if (name == "time") return Objective::time;
  if (name == "energy") return Objective::energy;
  if (name == "site") return Objective::site;
  throw std::invalid_argument("unknown objective '" + std::string(name) +
                              "' (expected time, energy, or site)");
}

bool dominates(const std::vector<double>& a, const std::vector<double>& b) {
  bool strictly_better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

std::vector<std::size_t> non_dominated(
    const std::vector<std::vector<double>>& objectives) {
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < objectives.size(); ++j) {
      if (j != i && dominates(objectives[j], objectives[i])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) keep.push_back(i);
  }
  return keep;
}

ParetoConfig golden_pareto_config() {
  ParetoConfig cfg;
  cfg.base = "KNL";
  cfg.kernels = {"AMG", "HPL", "XSBn", "BABL2"};
  cfg.scale = 0.2;
  cfg.trace_refs = 120'000;
  cfg.rounds = 2;
  cfg.threads = 1;  // host-independent op counts and FP reductions
  return cfg;
}

ParetoEngine::ParetoEngine(ParetoConfig cfg, StudyEngine::KernelFactory factory)
    : cfg_(std::move(cfg)), factory_(std::move(factory)) {}

ParetoResults ParetoEngine::run() {
  const auto found = arch::find_machine(cfg_.base);
  if (!found) {
    throw std::invalid_argument("unknown base machine '" + cfg_.base + "'");
  }
  const arch::CpuSpec& base = *found;
  if (cfg_.objectives.empty()) {
    throw std::invalid_argument("pareto: at least one objective required");
  }
  {
    std::set<Objective> unique(cfg_.objectives.begin(), cfg_.objectives.end());
    if (unique.size() != cfg_.objectives.size()) {
      throw std::invalid_argument("pareto: duplicate objective");
    }
  }
  if (cfg_.max_depth == 0) {
    throw std::invalid_argument("pareto: --max-depth must be >= 1");
  }

  // The move set: one step of the hill-climb. Factors are chosen so
  // composition matters — under the default constant-budget box a
  // bandwidth or core bump usually fits only after an FP64 cut or a
  // core shrink frees the silicon, which is the paper's Sec. VII trade.
  std::vector<std::string> moves = {
      "halve-fp64", "drop-fp64-vec", "widen-fp32=2",
      "dram-bw=1.25", "dram-bw=1.5",
      "cores=0.9", "cores=1.25",
      "tdp=0.85", "tdp=0.9",
  };
  if (base.has_mcdram()) {
    moves.insert(moves.end(),
                 {"mcdram-bw=1.25", "mcdram-bw=1.5", "mcdram-cap=2"});
  }

  // Phase 1: the one-time measurement pass.
  const VariantEvaluator evaluator(base, cfg_, factory_);

  // The machine a spec derives, or none when derive_variant rejects it.
  const auto machine_of =
      [&](const std::string& spec) -> std::optional<arch::CpuSpec> {
    try {
      return arch::derive_variant(base, spec).cpu;
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
  };
  // The moves that change only the last cache level (mcdram-cap): a pass
  // that replays a candidate can fill the candidate plus such a move as a
  // sibling, and the next round's expansion proposes exactly that machine.
  std::vector<std::string> sibling_moves;
  for (const auto& move : moves) {
    const auto moved = machine_of(move);
    if (moved && evaluator.is_sibling(base, *moved)) {
      sibling_moves.push_back(move);
    }
  }

  const auto objective_vector = [&](const VariantScore& s) {
    std::vector<double> o;
    o.reserve(cfg_.objectives.size());
    for (const Objective obj : cfg_.objectives) {
      switch (obj) {
        case Objective::time:
          o.push_back(s.geomean_time_ratio);
          break;
        case Objective::energy:
          o.push_back(s.geomean_energy_ratio);
          break;
        case Objective::site:
          o.push_back(-s.site_pct_peak);  // maximize -> minimize
          break;
      }
    }
    return o;
  };

  // Run-wide canonical dedup: a machine is proposed at most once however
  // it is spelled. The candidate filters all run on the (sequential)
  // generation path, so counters and the admitted stream are identical
  // for every jobs value. A candidate that survives them waits in
  // `batch`, its budget position in the matching `budgets` slot.
  std::set<std::string> seen;
  std::vector<arch::MachineVariant> batch;
  std::vector<arch::ResourceBudget> budgets;
  const auto admit = [&](const std::string& spec) {
    ++stats_.generated;
    arch::MachineVariant v;
    try {
      v = arch::derive_variant(base, spec);
    } catch (const std::invalid_argument&) {
      ++stats_.invalid;  // e.g. halving scalar FP64, DDR outrunning MCDRAM
      return;
    }
    if (!seen.insert(arch::canonical_cpu_digest(v.cpu)).second) {
      ++stats_.deduped;
      return;
    }
    const auto budget = arch::variant_budget(v.cpu, base);
    if (!arch::within_budget(budget, cfg_.budget)) {
      ++stats_.over_budget;
      return;
    }
    batch.push_back(std::move(v));
    budgets.push_back(budget);
  };

  // NSGA-style archive: only non-dominated points survive insertion.
  std::vector<ParetoPoint> archive;
  const auto merge_into_archive = [&](ParetoPoint&& p) {
    for (const auto& member : archive) {
      if (dominates(member.objectives, p.objectives)) return;
    }
    std::erase_if(archive, [&](const ParetoPoint& member) {
      return dominates(p.objectives, member.objectives);
    });
    archive.push_back(std::move(p));
  };

  // `more_rounds`: another expansion round follows this batch. Only
  // then are its candidates composed with the sibling moves, and only
  // where that round could admit the composition: within the depth cap,
  // never proposed before, inside the budget box. Any other composition
  // is never scored, so filling it would waste a walk and its memory.
  const auto score_batch = [&](bool more_rounds) {
    std::vector<arch::CpuSpec> siblings;
    for (const auto& v : batch) {
      if (!more_rounds ||
          arch::spec_transform_count(v.spec) + 1 > cfg_.max_depth) {
        continue;
      }
      for (const auto& move : sibling_moves) {
        auto sib = machine_of(arch::compose_specs(v.spec, move));
        if (sib && !seen.contains(arch::canonical_cpu_digest(*sib)) &&
            arch::within_budget(arch::variant_budget(*sib, base),
                                cfg_.budget)) {
          siblings.push_back(std::move(*sib));
        }
      }
    }
    auto scores = evaluator.evaluate(batch, siblings);
    stats_.evaluated += batch.size();
    ++stats_.rounds;
    // Merge in generation order, so the archive evolves identically for
    // every jobs value.
    for (std::size_t i = 0; i < scores.size(); ++i) {
      ParetoPoint p{std::move(scores[i]), budgets[i], {}};
      p.objectives = objective_vector(p.score);
      merge_into_archive(std::move(p));
    }
    batch.clear();
    budgets.clear();
  };

  // Seed round: the base itself, the built-in explore grid, and every
  // single move.
  admit("");
  for (const auto& spec : arch::builtin_variant_specs(base)) admit(spec);
  for (const auto& move : moves) admit(move);
  score_batch(cfg_.rounds > 0);

  // Expansion rounds: compose every archive member with every move
  // (depth-capped), then propose seeded explorer walks for diversity
  // beyond the hill-climb's one-step neighborhood.
  for (unsigned round = 1; round <= cfg_.rounds; ++round) {
    std::vector<std::string> parents;
    parents.reserve(archive.size());
    for (const auto& member : archive) parents.push_back(member.spec());
    for (const auto& parent : parents) {
      if (arch::spec_transform_count(parent) + 1 > cfg_.max_depth) continue;
      for (const auto& move : moves) {
        admit(arch::compose_specs(parent, move));
      }
    }
    Xoshiro256 rng(thread_seed(cfg_.search_seed, round));
    for (unsigned e = 0; e < cfg_.explorers; ++e) {
      const std::uint64_t depth =
          cfg_.max_depth >= 2 ? 2 + rng.below(cfg_.max_depth - 1) : 1;
      std::string spec;
      for (std::uint64_t d = 0; d < depth; ++d) {
        spec = arch::compose_specs(spec, moves[rng.below(moves.size())]);
      }
      admit(spec);
    }
    if (batch.empty()) break;  // neighborhood exhausted
    score_batch(round < cfg_.rounds);
  }

  ParetoResults out;
  out.base = base.short_name;
  out.budget = cfg_.budget;
  out.objectives = cfg_.objectives;
  out.frontier = std::move(archive);
  // Total order independent of visit order: objective vector, then spec
  // (distinct machines can tie on every objective).
  std::sort(out.frontier.begin(), out.frontier.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.objectives != b.objectives) {
                return a.objectives < b.objectives;
              }
              return a.score.variant.spec < b.score.variant.spec;
            });

  stats_.measurement = evaluator.measurement_stats();
  stats_.evaluator = evaluator.stats();
  return out;
}

}  // namespace fpr::study
