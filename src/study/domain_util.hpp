// Fig. 7: annual HPC site/system utilization by scientific domain, and
// the Sec. V-B projection of flop/s relevance ("ANL's ALCF and the
// K computer would achieve ~14% and ~11% of peak when projecting over
// the annual node-hours").
#pragma once

#include <string>
#include <vector>

#include "kernels/kernel.hpp"
#include "study/study.hpp"

namespace fpr::study {

/// Domain share of one site's annual node-hours (fractions sum to ~1).
struct SiteUtilization {
  std::string site;
  // Shares keyed in the paper's legend order:
  // geo, chm, phy, qcd, mat, eng, mcs, bio, oth.
  double geo = 0, chm = 0, phy = 0, qcd = 0, mat = 0, eng = 0, mcs = 0,
         bio = 0, oth = 0;

  [[nodiscard]] double total() const {
    return geo + chm + phy + qcd + mat + eng + mcs + bio + oth;
  }
};

/// The embedded Fig. 7 dataset: each site's domain shares, read off the
/// published figure, which the paper took from each site's annual report.
const std::vector<SiteUtilization>& site_utilization();

/// Representative proxy per domain (Table II mapping used in Sec. V-B).
kernels::Domain domain_of_label(const std::string& label);

/// One kernel's contribution to the Fig. 7 projection, decoupled from
/// StudyResults so the incremental evaluator and the full study feed the
/// identical projection arithmetic.
struct ProjectionPoint {
  kernels::Domain domain = kernels::Domain::math_cs;
  bool has_fp = false;  ///< measured FP ops > 0 (I/O and graph proxies: no)
  double pct_of_peak = 0.0;
};

/// Project a site's achievable fraction-of-peak flop/s by weighting the
/// per-domain mean %peak of the representative proxies with the site's
/// node-hour shares (renormalized over the covered share). Returns
/// percent of peak.
double project_site_pct_peak(const SiteUtilization& site,
                             const std::vector<ProjectionPoint>& points);

/// Convenience overload over full study results for `machine`.
double project_site_pct_peak(const SiteUtilization& site,
                             const StudyResults& results,
                             const std::string& machine_short_name);

}  // namespace fpr::study
