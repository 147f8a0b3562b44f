#include "study/variant_eval.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "study/domain_util.hpp"

namespace fpr::study {

double geomean_ratio(const std::vector<double>& ratios) {
  if (ratios.empty()) return 1.0;
  double log_sum = 0.0;
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    const double x = ratios[i];
    if (!std::isfinite(x) || x <= 0.0) {
      throw std::domain_error(
          "geomean_ratio: ratio #" + std::to_string(i) + " is " +
          std::to_string(x) +
          " — every per-kernel ratio must be finite and > 0 (a zero or "
          "non-finite ratio means a model produced a degenerate time or "
          "energy value upstream)");
    }
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(ratios.size()));
}

VariantEvaluator::VariantEvaluator(arch::CpuSpec base, const Config& cfg,
                                   StudyEngine::KernelFactory factory)
    : base_(std::move(base)),
      trace_refs_(cfg.trace_refs),
      jobs_(std::max(1u, cfg.jobs != 0 ? cfg.jobs
                                        : std::thread::hardware_concurrency())),
      sim_cache_(std::make_shared<memsim::SimCache>()) {
  // Measurement phase: one study over the base machine alone. Each
  // kernel runs instrumented exactly once; the base's hierarchy replays
  // land in sim_cache_, which outlives the engine so later geometry-
  // changing variants extend the same memo instead of restarting it.
  StudyConfig sc;
  static_cast<MeasureConfig&>(sc) = cfg;
  sc.freq_sweep = false;  // the Fig. 6 sweep is a per-real-machine study
  sc.canonical_timing = true;  // scores are analytic; keep them stable
  sc.machines.push_back(base_);
  sc.sim_cache = sim_cache_;

  StudyEngine engine(sc, std::move(factory));
  auto results = engine.run();  // rethrows kernel-verification failures
  measurement_stats_ = engine.stats();

  auto base_profiles = std::make_shared<ProfileSet>();
  base_profiles->reserve(results.kernels.size());
  kernels_.reserve(results.kernels.size());
  for (auto& k : results.kernels) {
    base_profiles->push_back(k.machines[0].mem);
    kernels_.push_back(
        {std::move(k.info), std::move(k.meas), k.machines[0].perf});
  }
  // Prime the model-level memo: every variant that leaves the memory
  // system untouched (TDP, FPU respins) shares the base digest and pays
  // zero simulation work.
  memo_.emplace(arch::memory_model_digest(base_), std::move(base_profiles));
}

std::vector<std::shared_ptr<const VariantEvaluator::ProfileSet>>
VariantEvaluator::profiles_for(
    const std::vector<arch::MachineVariant>& variants,
    const std::vector<arch::CpuSpec>& siblings) const {
  std::lock_guard lock(mu_);  // one batch at a time: memo and counts exact

  // 1. Walk the batch in input order, counting as a loop of one-variant
  //    calls would: a digest first seen earlier in the batch is a hit.
  std::vector<std::string> digests;
  digests.reserve(variants.size());
  std::unordered_map<std::string, std::size_t> fresh_slot;
  std::vector<const arch::CpuSpec*> fresh;  // first cpu per new digest
  for (const auto& v : variants) {
    digests.push_back(arch::memory_model_digest(v.cpu));
    if (memo_.contains(digests.back()) ||
        !fresh_slot.emplace(digests.back(), fresh.size()).second) {
      ++stats_.memo_hits;
    } else {
      ++stats_.memo_misses;
      fresh.push_back(&v.cpu);
    }
  }

  // 2. One unit per (new digest, kernel). The first unit of each
  //    SimCache key looks it up; a new key joins the pass of its prefix
  //    key, so replays that differ only in the last level share one walk
  //    of the levels above it. Later units of a key (a bandwidth respin
  //    of a new geometry, or two kernels with one sliced pattern) read it
  //    back from the SimCache once the passes have run.
  const std::size_t nk = kernels_.size();
  std::vector<ProfileSet> sets(fresh.size(), ProfileSet(nk));
  const auto set_profile = [&](std::size_t unit,
                               const memsim::HierarchyResult& res) {
    sets[unit / nk][unit % nk] = model::profile_from_replay(
        *fresh[unit / nk], kernels_[unit % nk].meas, res);
  };
  struct Pass {
    memsim::AccessPatternSpec slice;  // every member's per-core slice
    std::vector<arch::CpuSpec> cpus;  // scored members, then siblings
    std::vector<std::string> keys;    // in cpus order
    std::vector<std::size_t> units;   // the scored members' units
  };
  std::vector<Pass> passes;
  std::unordered_map<std::string, std::size_t> pass_of;  // by prefix key
  std::unordered_set<std::string> keys;
  std::vector<std::size_t> followers;
  for (std::size_t unit = 0; unit < sets.size() * nk; ++unit) {
    const arch::CpuSpec& cpu = *fresh[unit / nk];
    Replay r = replay_of(cpu, unit % nk);
    if (!keys.insert(r.key).second) {
      followers.push_back(unit);
    } else if (const auto stored = sim_cache_->find(r.key)) {
      set_profile(unit, *stored);
    } else {
      const auto [at, added] = pass_of.try_emplace(r.prefix, passes.size());
      if (added) passes.push_back({std::move(r.slice), {}, {}, {}});
      Pass& pass = passes[at->second];
      pass.cpus.push_back(cpu);
      pass.keys.push_back(std::move(r.key));
      pass.units.push_back(unit);
    }
  }
  // A sibling joins a pass that shares its prefix, unless its key is
  // stored or already in the batch; it is never replayed alone.
  for (const auto& sib : siblings) {
    for (std::size_t k = 0; k < nk; ++k) {
      Replay r = replay_of(sib, k);
      const auto at = pass_of.find(r.prefix);
      if (at == pass_of.end() || sim_cache_->contains(r.key) ||
          !keys.insert(r.key).second) {
        continue;
      }
      passes[at->second].cpus.push_back(sib);
      passes[at->second].keys.push_back(std::move(r.key));
      ++stats_.sibling_fills;
    }
  }
  stats_.replays += passes.size();

  if (!passes.empty()) {
    // Replay costs vary by kernel, so workers claim passes from a shared
    // cursor; static chunks would leave some idle.
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(jobs_, passes.size())));
    std::atomic<std::size_t> next{0};
    pool.parallel_for(pool.size() + 1, [&](std::size_t, std::size_t, unsigned) {
      for (std::size_t i = next++; i < passes.size(); i = next++) {
        Pass& pass = passes[i];
        auto results = memsim::simulate_siblings(
            pass.cpus, pass.slice, trace_refs_, model::kProfileSeed,
            model::kDefaultScaleShift);
        for (std::size_t m = 0; m < results.size(); ++m) {
          const auto stored =
              sim_cache_->insert(pass.keys[m], std::move(results[m]));
          if (m < pass.units.size()) set_profile(pass.units[m], *stored);
        }
      }
    });
  }

  // 3. Every remaining unit is a SimCache hit now.
  for (const std::size_t unit : followers) {
    sets[unit / nk][unit % nk] = model::profile_memory(
        *fresh[unit / nk], kernels_[unit % nk].meas, trace_refs_,
        model::kDefaultScaleShift, sim_cache_.get());
  }
  for (auto& [digest, slot] : fresh_slot) {
    memo_.emplace(digest, std::make_shared<const ProfileSet>(
                              std::move(sets[slot])));
  }
  std::vector<std::shared_ptr<const ProfileSet>> out;
  out.reserve(variants.size());
  for (const auto& digest : digests) out.push_back(memo_.at(digest));
  return out;
}

std::vector<VariantScore> VariantEvaluator::evaluate(
    const std::vector<arch::MachineVariant>& variants,
    const std::vector<arch::CpuSpec>& siblings) const {
  const auto profiles = profiles_for(variants, siblings);
  std::vector<VariantScore> scores;
  scores.reserve(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    scores.push_back(score_variant(variants[i], *profiles[i]));
  }
  std::lock_guard lock(mu_);
  stats_.evaluations += variants.size();
  return scores;
}

bool VariantEvaluator::is_sibling(const arch::CpuSpec& a,
                                  const arch::CpuSpec& b) const {
  for (std::size_t k = 0; k < kernels_.size(); ++k) {
    const Replay ra = replay_of(a, k);
    const Replay rb = replay_of(b, k);
    if (ra.prefix != rb.prefix || ra.key == rb.key) return false;
  }
  return !kernels_.empty();
}

VariantEvaluator::Replay VariantEvaluator::replay_of(const arch::CpuSpec& cpu,
                                                     std::size_t k) const {
  Replay r;
  r.slice = model::per_core_slice(kernels_[k].meas.access, cpu.cores);
  r.key = memsim::SimCache::key(cpu, r.slice, trace_refs_,
                                model::kProfileSeed, model::kDefaultScaleShift);
  r.prefix = memsim::SimCache::prefix_key(cpu, r.slice, trace_refs_,
                                          model::kProfileSeed,
                                          model::kDefaultScaleShift);
  return r;
}

VariantScore VariantEvaluator::evaluate(
    const arch::MachineVariant& variant) const {
  return std::move(evaluate(std::vector{variant}).front());
}

VariantScore VariantEvaluator::score_variant(
    const arch::MachineVariant& variant, const ProfileSet& profiles) const {
  VariantScore score;
  score.variant = variant;
  const arch::CpuSpec& cpu = score.variant.cpu;

  std::vector<double> time_ratios, energy_ratios, fp64_pcts;
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    const KernelBase& kb = kernels_[i];
    KernelProjection p;
    p.abbrev = kb.info.abbrev;
    p.mem = profiles[i];
    p.perf = model::evaluate_at_turbo(cpu, kb.meas, p.mem);
    p.time_ratio = p.perf.seconds / kb.perf.seconds;
    p.energy_ratio = (p.perf.power_w * p.perf.seconds) /
                     (kb.perf.power_w * kb.perf.seconds);
    const auto ops = kb.meas.ops_on(cpu.has_mcdram());
    if (ops.fp64 > 0) {
      const double achieved_gflops =
          static_cast<double>(ops.fp64) / p.perf.seconds / kGiga;
      p.fp64_pct_peak =
          100.0 * achieved_gflops / cpu.peak_gflops(arch::Precision::fp64);
      fp64_pcts.push_back(p.fp64_pct_peak);
    }
    time_ratios.push_back(p.time_ratio);
    energy_ratios.push_back(p.energy_ratio);
    score.kernels.push_back(std::move(p));
  }

  score.geomean_time_ratio = geomean_ratio(time_ratios);
  score.geomean_energy_ratio = geomean_ratio(energy_ratios);
  if (!fp64_pcts.empty()) {
    double sum = 0.0;
    for (const double v : fp64_pcts) sum += v;
    score.mean_fp64_pct_peak = sum / static_cast<double>(fp64_pcts.size());
  }

  // Mean Fig. 7 site projection over the surveyed sites, from the same
  // per-kernel points the full-study overload would build.
  std::vector<ProjectionPoint> points;
  points.reserve(kernels_.size());
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    points.push_back({kernels_[i].info.domain,
                      kernels_[i].meas.ops.fp_total() != 0,
                      score.kernels[i].perf.pct_of_peak});
  }
  const auto& sites = site_utilization();
  double site_sum = 0.0;
  for (const auto& site : sites) {
    site_sum += project_site_pct_peak(site, points);
  }
  score.site_pct_peak =
      sites.empty() ? 0.0 : site_sum / static_cast<double>(sites.size());
  return score;
}

EvaluatorStats VariantEvaluator::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace fpr::study
