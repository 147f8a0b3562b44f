#include "study/explore.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "arch/machines.hpp"
#include "common/thread_pool.hpp"

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

  const auto specs = cfg_.variants.empty()
                         ? arch::builtin_variant_specs(base)
                         : cfg_.variants;
  // Dedup on the canonical resolved machine, not the spec string: "a+b"
  // vs "b+a" and factor respellings ("dram-bw=1.5" vs "dram-bw=1.50")
  // derive the same CpuSpec and must be rejected as loudly as a literal
  // repeat. The base's own digest is seeded so an identity spec (e.g.
  // "cores=1") cannot silently duplicate the baseline row either.
  std::set<std::string> seen_specs;
  std::map<std::string, std::string> canonical;  // digest -> first spec
  canonical.emplace(arch::canonical_cpu_digest(base), "<the base machine>");
  std::vector<arch::MachineVariant> variants;
  variants.reserve(specs.size());
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

  // Phase 1: measure every kernel on the base exactly once.
  const VariantEvaluator evaluator(base, cfg_, factory_);

  // Phase 2: score the baseline and every variant from the cached
  // measurements — model arithmetic only, slot-ordered so any jobs
  // split is a pure reordering.
  ExploreResults out;
  out.base = base.short_name;
  out.baseline = evaluator.evaluate(arch::MachineVariant{"", std::move(base)});
  out.variants.resize(variants.size());

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned jobs = std::max(1u, cfg_.jobs != 0 ? cfg_.jobs : hw);
  if (jobs == 1 || variants.size() <= 1) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      out.variants[i] = evaluator.evaluate(variants[i]);
    }
  } else {
    ThreadPool pool(jobs);
    pool.parallel_for(variants.size(),
                      [&](std::size_t begin, std::size_t end, unsigned) {
                        for (std::size_t i = begin; i < end; ++i) {
                          out.variants[i] = evaluator.evaluate(variants[i]);
                        }
                      });
  }

  stats_ = evaluator.measurement_stats();
  // Count the scored (kernel, variant) grid like the monolithic engine
  // did, and report replay-cache totals across both phases.
  stats_.machine_evals +=
      variants.size() * static_cast<std::uint64_t>(evaluator.kernel_count());
  const auto sim = evaluator.sim_stats();
  stats_.sim_hits = sim.hits;
  stats_.sim_misses = sim.misses;
  evaluator_stats_ = evaluator.stats();
  return out;
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
