#include "study/explore.hpp"

#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "arch/machines.hpp"

namespace fpr::study {

const VariantScore* ExploreResults::find(std::string_view name) const {
  if (baseline.name() == name) return &baseline;
  for (const auto& v : variants) {
    if (v.name() == name) return &v;
  }
  return nullptr;
}

ExploreEngine::ExploreEngine(ExploreConfig cfg,
                             StudyEngine::KernelFactory factory)
    : cfg_(std::move(cfg)), factory_(std::move(factory)) {}

ExploreResults ExploreEngine::run() {
  auto found = arch::find_machine(cfg_.base);
  if (!found) {
    throw std::invalid_argument("unknown base machine '" + cfg_.base + "'");
  }
  arch::CpuSpec base = std::move(*found);

  const auto variants = explore_variants(
      base, cfg_.variants.empty() ? arch::builtin_variant_specs(base)
                                  : cfg_.variants);

  // Phase 1: measure every kernel on the base exactly once.
  const VariantEvaluator evaluator(base, cfg_, factory_);

  // Phase 2: score the baseline and every variant in one batch, which
  // replays each new geometry's traces once over cfg.jobs workers.
  auto scores = evaluator.evaluate(variants);
  ExploreResults out;
  out.base = base.short_name;
  out.baseline = std::move(scores.front());
  scores.erase(scores.begin());
  out.variants = std::move(scores);

  stats_ = evaluator.measurement_stats();
  // Count the scored (kernel, variant) grid like the monolithic engine
  // did, and report replay-cache totals across both phases.
  stats_.machine_evals += out.variants.size() *
                          static_cast<std::uint64_t>(evaluator.kernel_count());
  const auto sim = evaluator.sim_stats();
  stats_.sim_hits = sim.hits;
  stats_.sim_misses = sim.misses;
  return out;
}

std::vector<arch::MachineVariant> explore_variants(
    const arch::CpuSpec& base, const std::vector<std::string>& specs) {
  // Dedup on the canonical resolved machine, not the spec string: "a+b"
  // vs "b+a" and factor respellings ("dram-bw=1.5" vs "dram-bw=1.50")
  // derive the same CpuSpec and must be rejected as loudly as a literal
  // repeat. The base's own digest is seeded so an identity spec (e.g.
  // "cores=1") cannot silently duplicate the baseline row either.
  std::set<std::string> seen_specs;
  std::map<std::string, std::string> canonical;  // digest -> first spec
  canonical.emplace(arch::canonical_cpu_digest(base), "<the base machine>");
  // Slot 0 is the baseline: the base itself, scored like any variant.
  std::vector<arch::MachineVariant> variants;
  variants.reserve(specs.size() + 1);
  variants.push_back({"", base});
  for (const auto& spec : specs) {
    if (!seen_specs.insert(spec).second) {
      throw std::invalid_argument("duplicate variant spec '" + spec + "'");
    }
    auto v = arch::derive_variant(base, spec);  // re-validates
    const auto [it, inserted] =
        canonical.emplace(arch::canonical_cpu_digest(v.cpu), spec);
    if (!inserted) {
      throw std::invalid_argument("variant spec '" + spec +
                                  "' derives the same machine as " +
                                  (it->second == "<the base machine>"
                                       ? it->second
                                       : "'" + it->second + "'"));
    }
    variants.push_back(std::move(v));
  }
  return variants;
}

ExploreConfig golden_explore_config() {
  ExploreConfig cfg;
  // The study golden's measurement pass: its kernels, scale, seed, trace
  // length and single-threaded (host-independent) runs.
  static_cast<MeasureConfig&>(cfg) = golden_config();
  cfg.base = "KNL";
  cfg.variants = {};  // the built-in grid — gated along with the results
  return cfg;
}

}  // namespace fpr::study
