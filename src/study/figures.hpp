// Generators for every table and figure in the paper's evaluation
// (Sec. IV). Each returns a TextTable holding exactly the rows/series
// the corresponding paper artifact plots; `fpr tables` prints Tables
// I-III and `fpr report` the rest, through paper_report().
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "study/study.hpp"

namespace fpr::study {

/// Table I: compute-node hardware comparison (spec side; the measured
/// Triad columns come from the model's bandwidth parameters).
TextTable table1_hardware();

/// Table II: application categorization (domain, pattern, language).
TextTable table2_categorization();

/// Table III: metric -> method/tool mapping of this reproduction.
TextTable table3_metrics();

/// Fig. 1: INT vs FP32 vs FP64 operation shares per app per machine.
TextTable fig1_opmix(const StudyResults& r);

/// Fig. 2 top: relative Gflop/s of KNL/KNM over BDW. Filters the
/// negligible-FP proxies (MxIO, MTri, NGSA) and MiniAMR, as the paper
/// does.
TextTable fig2_relative_flops(const StudyResults& r);

/// Fig. 2 bottom: absolute achieved Gflop/s as % of dominant-precision
/// theoretical peak.
TextTable fig2_pct_of_peak(const StudyResults& r);

/// Fig. 3: runtime speedup of KNL/KNM over BDW (all proxies).
TextTable fig3_speedup(const StudyResults& r);

/// Fig. 4: memory/system throughput per proxy app per machine [GB/s].
TextTable fig4_membw(const StudyResults& r);

/// Fig. 5: roofline coordinates for the BDW reference system.
TextTable fig5_roofline(const StudyResults& r);

/// Fig. 6: frequency-scaling speedup for one machine (relative to its
/// lowest throttle state), one column per frequency state.
TextTable fig6_freqscale(const StudyResults& r,
                         const std::string& machine_short_name);

/// Fig. 7: site utilization shares plus the Sec. V-B projected %peak.
TextTable fig7_site_utilization(const StudyResults& r);

/// Table IV: full measured-metric dump for one machine.
TextTable table4_metrics(const StudyResults& r,
                         const std::string& machine_short_name);

/// One artifact as `fpr report` prints it: a heading, the table, and
/// the note lines under it ("" = none).
struct ReportSection {
  std::string heading;
  TextTable table;
  std::string notes;
};

/// Figs. 1-7 (Fig. 2 top and bottom, Fig. 6 per machine) and then
/// Table IV per machine, in paper order. Each artifact that has paper
/// numbers is followed by a paper-vs-model table with the columns App,
/// Paper, Model and Model/Paper.
std::vector<ReportSection> paper_report(const StudyResults& r);

}  // namespace fpr::study
