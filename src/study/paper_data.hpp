// Reference values transcribed from the paper (Table IV and Table I),
// used by `fpr report` (study/figures.cpp) and the benchmark to compare
// the model with the paper. These values are *never* inputs to the
// model — they are the ground truth our reproduction is judged against.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace fpr::study {

/// One proxy-app row of the paper's Table IV (per machine).
struct PaperRow {
  std::string abbrev;
  // Time-to-solution of the kernel [s].
  double t2sol_knl = 0.0;
  double t2sol_knm = 0.0;
  double t2sol_bdw = 0.0;
  // Operation counts [Gop] on KNL (BDW where noted in comments).
  double gop_fp64_knl = 0.0;
  double gop_fp32_knl = 0.0;
  double gop_int_knl = 0.0;
  // BDW op counts (for the Fig. 1 mix on the reference system).
  double gop_fp64_bdw = 0.0;
  double gop_fp32_bdw = 0.0;
  double gop_int_bdw = 0.0;
};

/// All Table IV rows in paper order. CANDLE's Phi op counts are absent
/// in the paper (SDE crashes); they are set to the BDW values as the
/// paper itself assumes in Fig. 2.
const std::vector<PaperRow>& table4();

/// Look up a row by kernel abbreviation.
const PaperRow* paper_row(const std::string& abbrev);

/// Derived paper metrics used in EXPERIMENTS shape checks.
struct PaperDerived {
  double speedup_knl_vs_bdw(const PaperRow& r) const {
    return r.t2sol_bdw / r.t2sol_knl;
  }
  double knm_vs_knl(const PaperRow& r) const {
    return r.t2sol_knl / r.t2sol_knm;
  }
};

}  // namespace fpr::study
