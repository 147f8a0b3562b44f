// Procurement advisor: the paper's Sec. V-B/V-C scenario. Given a
// site's domain mix (node-hour shares), project the achievable fraction
// of peak on each candidate machine and report whether paying for FP64
// silicon is worth it — the NASA Pleiades-style decision (Sec. V-C).
// The second half asks the Sec. VII what-if question directly: the
// built-in KNL variant grid (fewer FP64 pipes, more bandwidth, more
// MCDRAM, more cores, tighter TDP) is evaluated on the same run, so the
// advice names the silicon shift that would serve this mix best.
//
//   $ ./procurement_advisor [geo chm phy qcd mat eng mcs bio]
//     (no shares, or exactly eight finite numbers >= 0 with a sum > 0;
//     default: a weather-center-like mix)
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/variant.hpp"
#include "common/table.hpp"
#include "study/domain_util.hpp"
#include "study/figures.hpp"
#include "study/study_engine.hpp"

namespace {

constexpr const char* kUsage =
    "usage: procurement_advisor [geo chm phy qcd mat eng mcs bio]\n";

/// Exit 2 with `message` and the usage line: a bad argument is a usage
/// error, never a run on shares nobody asked for.
int usage_error(const std::string& message) {
  std::cerr << "procurement_advisor: " << message << "\n" << kUsage;
  return 2;
}

/// One share: the whole token must parse as a finite number >= 0.
bool parse_share(const std::string& text, double& share) {
  std::size_t used = 0;
  try {
    share = std::stod(text, &used);
  } catch (const std::logic_error&) {  // what std::stod throws
    used = 0;
  }
  return used != 0 && used == text.size() && std::isfinite(share) &&
         share >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpr;

  study::SiteUtilization site;
  site.site = "your-site";
  if (argc != 1 && argc != 9) {
    return usage_error("expected no shares or exactly 8, got " +
                       std::to_string(argc - 1));
  }
  if (argc == 9) {
    const std::pair<const char*, double*> shares[] = {
        {"geo", &site.geo}, {"chm", &site.chm}, {"phy", &site.phy},
        {"qcd", &site.qcd}, {"mat", &site.mat}, {"eng", &site.eng},
        {"mcs", &site.mcs}, {"bio", &site.bio}};
    for (int i = 0; i < 8; ++i) {
      const std::string text = argv[i + 1];
      if (!parse_share(text, *shares[i].second)) {
        std::string message = "share ";
        message += shares[i].first;
        message += " must be a finite number >= 0, got '";
        message += text;
        message += "'";
        return usage_error(message);
      }
    }
    const double total = site.total();
    if (!(total > 0.0 && std::isfinite(total))) {
      return usage_error("shares must sum to a finite number > 0");
    }
  } else {
    // Weather-forecasting-heavy center (the paper's JMA example:
    // memory-bound stencils dominate).
    site.geo = 0.7;
    site.phy = 0.2;
    site.eng = 0.1;
    std::cout << "(no shares given; using a weather-center-like mix: "
                 "70% geo, 20% phy, 10% eng)\n\n";
  }

  std::cout << "Running the proxy suite to characterize the domains...\n";
  study::StudyConfig cfg;
  cfg.scale = 0.25;
  cfg.freq_sweep = false;
  cfg.trace_refs = 120'000;
  // One study over the Table I machines PLUS the built-in KNL what-if
  // grid: every kernel still runs instrumented exactly once.
  cfg.machines = arch::all_machines();
  const auto base = arch::knl();
  std::vector<arch::MachineVariant> variants;
  for (const auto& spec : arch::builtin_variant_specs(base)) {
    variants.push_back(arch::derive_variant(base, spec));
    cfg.machines.push_back(variants.back().cpu);
  }
  const auto results = study::StudyEngine(cfg).run();

  TextTable t({"Machine", "Projected % of peak", "FP64 peak [Gflop/s]",
               "Effective Gflop/s"});
  for (const auto& cpu : arch::all_machines()) {
    const double pct =
        study::project_site_pct_peak(site, results, cpu.short_name);
    const double peak = cpu.peak_gflops(arch::Precision::fp64);
    t.row()
        .cell(cpu.short_name)
        .num(pct, 1)
        .num(peak, 0)
        .num(peak * pct / 100.0, 0)
        .done();
  }
  t.print(std::cout);

  const double knl =
      study::project_site_pct_peak(site, results, "KNL");
  const double knm =
      study::project_site_pct_peak(site, results, "KNM");
  std::cout << "\nAdvice: your mix reaches " << fmt_double(knl, 1)
            << "% of KNL's peak vs " << fmt_double(knm, 1)
            << "% of KNM's.\n"
            << "If these are within a few percent, the paper's conclusion "
               "applies to you:\ndo not pay a premium for FP64-heavy "
               "silicon — invest in memory bandwidth instead\n(Sec. V-C, "
               "the NASA Pleiades example).\n";

  // The Sec. VII what-if: which re-spin of the KNL would serve this mix
  // best? Effective Gflop/s is peak x projected utilization, so a
  // variant that sheds FP64 peak can still win on utilization alone.
  std::cout << "\nWhat-if grid (derived KNL variants on the same run):\n";
  TextTable w({"Variant", "Projected % of peak", "FP64 peak [Gflop/s]",
               "Effective Gflop/s"});
  std::string best_name = "KNL";
  double best_eff = knl * base.peak_gflops(arch::Precision::fp64) / 100.0;
  for (const auto& v : variants) {
    const double pct =
        study::project_site_pct_peak(site, results, v.cpu.short_name);
    const double peak = v.cpu.peak_gflops(arch::Precision::fp64);
    const double eff = peak * pct / 100.0;
    w.row()
        .cell(v.cpu.short_name)
        .num(pct, 1)
        .num(peak, 0)
        .num(eff, 0)
        .done();
    if (eff > best_eff) {
      best_eff = eff;
      best_name = v.cpu.short_name;
    }
  }
  w.print(std::cout);
  std::cout << "\nBest effective throughput for this mix: " << best_name
            << " (" << fmt_double(best_eff, 0) << " Gflop/s).\n";
  return 0;
}
