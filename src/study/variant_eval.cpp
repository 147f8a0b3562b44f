#include "study/variant_eval.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

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

std::shared_ptr<const VariantEvaluator::ProfileSet>
VariantEvaluator::profiles_for(const arch::CpuSpec& cpu) const {
  const std::string digest = arch::memory_model_digest(cpu);
  {
    std::lock_guard lock(mu_);
    if (const auto it = memo_.find(digest); it != memo_.end()) {
      ++stats_.memo_hits;
      return it->second;
    }
    ++stats_.memo_misses;
  }
  // Compute outside the lock: a distinct geometry costs one replay set,
  // and concurrent callers racing on the same new digest just compute
  // identical profiles (deterministic simulation) — first insert wins.
  auto set = std::make_shared<ProfileSet>();
  set->reserve(kernels_.size());
  for (const auto& kb : kernels_) {
    set->push_back(model::profile_memory(cpu, kb.meas, trace_refs_,
                                         model::kDefaultScaleShift,
                                         sim_cache_.get()));
  }
  std::lock_guard lock(mu_);
  return memo_.emplace(digest, std::move(set)).first->second;
}

VariantScore VariantEvaluator::evaluate(
    const arch::MachineVariant& variant) const {
  VariantScore score;
  score.variant = variant;
  const arch::CpuSpec& cpu = score.variant.cpu;
  const auto profiles = profiles_for(cpu);

  std::vector<double> time_ratios, energy_ratios, fp64_pcts;
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    const KernelBase& kb = kernels_[i];
    KernelProjection p;
    p.abbrev = kb.info.abbrev;
    p.mem = (*profiles)[i];
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

  {
    std::lock_guard lock(mu_);
    ++stats_.evaluations;
  }
  return score;
}

EvaluatorStats VariantEvaluator::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace fpr::study
