// Tests for the study pipeline, methodology helpers, figure generators,
// paper data, and the Fig. 7 domain analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "study/domain_util.hpp"
#include "study/figures.hpp"
#include "study/methodology.hpp"
#include "study/paper_data.hpp"
#include "study/study.hpp"

namespace fpr::study {
namespace {

// A small kernel subset keeps study tests fast while covering every
// workload class: stencil, dense, irregular, stream, I/O.
StudyConfig small_config() {
  StudyConfig cfg;
  cfg.scale = 0.2;
  cfg.trace_refs = 120'000;
  cfg.kernels = {"AMG", "HPL", "XSBn", "BABL2", "MxIO", "NGSA"};
  return cfg;
}

class StudyTest : public ::testing::Test {
 protected:
  static const StudyResults& results() {
    static const StudyResults r = run_study(small_config());
    return r;
  }
};

TEST_F(StudyTest, RunsRequestedSubsetInOrder) {
  ASSERT_EQ(results().kernels.size(), 6u);
  EXPECT_EQ(results().kernels[0].info.abbrev, "AMG");  // paper order
  EXPECT_NE(results().find("HPL"), nullptr);
  EXPECT_EQ(results().find("QCD"), nullptr);  // not requested
}

TEST_F(StudyTest, EveryKernelHasThreeMachines) {
  for (const auto& k : results().kernels) {
    ASSERT_EQ(k.machines.size(), 3u);
    EXPECT_EQ(k.machines[0].cpu.short_name, "KNL");
    EXPECT_EQ(k.machines[1].cpu.short_name, "KNM");
    EXPECT_EQ(k.machines[2].cpu.short_name, "BDW");
    EXPECT_THROW((void)k.on("XXX"), std::invalid_argument);
  }
}

TEST_F(StudyTest, FrequencySweepPopulated) {
  const auto* hpl = results().find("HPL");
  ASSERT_NE(hpl, nullptr);
  for (const auto& m : hpl->machines) {
    EXPECT_EQ(m.freq_sweep.size(), m.cpu.frequency_sweep().size());
    // Times must be non-increasing with frequency (compute or not).
    for (std::size_t i = 1; i < m.freq_sweep.size(); ++i) {
      EXPECT_LE(m.freq_sweep[i].second.seconds,
                m.freq_sweep[i - 1].second.seconds * 1.0001);
    }
  }
}

TEST_F(StudyTest, HplComputeBoundEverywhere) {
  const auto* hpl = results().find("HPL");
  for (const auto& m : hpl->machines) {
    EXPECT_EQ(m.perf.bound, model::Bound::compute) << m.cpu.short_name;
  }
}

TEST_F(StudyTest, HplFasterOnPhis) {
  const auto* hpl = results().find("HPL");
  EXPECT_LT(hpl->on("KNL").perf.seconds, hpl->on("BDW").perf.seconds);
  EXPECT_LT(hpl->on("KNM").perf.seconds, hpl->on("BDW").perf.seconds);
}

TEST_F(StudyTest, StreamBandwidthBoundAndMcdramHelps) {
  const auto* babl = results().find("BABL2");
  EXPECT_EQ(babl->on("KNL").perf.bound, model::Bound::bandwidth);
  // MCDRAM-resident stream: Phi throughput far above BDW's DRAM.
  EXPECT_GT(babl->on("KNL").perf.mem_throughput_gbs,
            babl->on("BDW").perf.mem_throughput_gbs * 1.5);
}

TEST_F(StudyTest, NgsaSlowerOnPhi) {
  // The paper's standout: NGSA collapses on the narrow Phi cores.
  const auto* ngsa = results().find("NGSA");
  EXPECT_GT(ngsa->on("KNL").perf.seconds,
            ngsa->on("BDW").perf.seconds * 2.0);
}

TEST_F(StudyTest, MacsioIoBoundAndFrequencySensitive) {
  const auto* mxio = results().find("MxIO");
  EXPECT_EQ(mxio->on("KNL").perf.bound, model::Bound::io);
  const auto& sweep = mxio->on("KNL").freq_sweep;
  // Paper Sec. IV-E: MACSio's write speed scales with frequency.
  EXPECT_GT(sweep.front().second.seconds / sweep.back().second.seconds,
            1.15);
}

TEST_F(StudyTest, FiguresHaveExpectedShape) {
  const auto& r = results();
  // BABL2 is a reference-stream row: excluded from the proxy figures.
  EXPECT_EQ(fig1_opmix(r).num_rows(), 5u * 3u);
  // Fig. 2 additionally filters MxIO and NGSA: {AMG, HPL, XSBn} remain.
  EXPECT_EQ(fig2_relative_flops(r).num_rows(), 3u);
  EXPECT_EQ(fig2_pct_of_peak(r).num_rows(), 3u);
  EXPECT_EQ(fig3_speedup(r).num_rows(), 5u);  // BABL excluded
  EXPECT_EQ(fig4_membw(r).num_rows(), 6u);
  EXPECT_EQ(fig5_roofline(r).num_rows(), 3u);
  EXPECT_EQ(fig6_freqscale(r, "KNL").num_rows(), 5u);
  EXPECT_EQ(fig6_freqscale(r, "KNL").num_cols(), 1u + 5u);
  EXPECT_EQ(table4_metrics(r, "KNM").num_rows(), 5u);
  EXPECT_THROW(fig6_freqscale(r, "???"), std::invalid_argument);
}

TEST_F(StudyTest, StaticTablesRender) {
  std::ostringstream os;
  table1_hardware().print(os);
  table2_categorization().print(os);
  table3_metrics().print(os);
  EXPECT_NE(os.str().find("Xeon Phi"), std::string::npos);
  EXPECT_NE(os.str().find("2662"), std::string::npos);  // KNL FP64 peak
  EXPECT_EQ(table2_categorization().num_rows(), 20u);   // 12 ECP + 8 RIKEN
}

TEST_F(StudyTest, Fig7ProjectionInPaperBallpark) {
  const auto& sites = site_utilization();
  EXPECT_EQ(sites.size(), 8u);
  for (const auto& s : sites) EXPECT_NEAR(s.total(), 1.0, 0.05);
  // Full-suite projections are exercised by `fpr report` (CTest
  // fpr_results_doc); here: the projection function stays within
  // (0, 100) and the figure renders.
  const auto table = fig7_site_utilization(results());
  EXPECT_EQ(table.num_rows(), 8u);
}

TEST(PaperData, Table4Transcription) {
  ASSERT_EQ(table4().size(), 22u);
  const auto* hpl = paper_row("HPL");
  ASSERT_NE(hpl, nullptr);
  EXPECT_NEAR(hpl->t2sol_bdw, 271.794, 1e-3);
  EXPECT_NEAR(hpl->gop_fp64_knl, 184191.774, 1e-3);
  EXPECT_EQ(paper_row("NOPE"), nullptr);
  // Sanity: every row has positive times on all machines.
  for (const auto& r : table4()) {
    EXPECT_GT(r.t2sol_knl, 0.0) << r.abbrev;
    EXPECT_GT(r.t2sol_knm, 0.0) << r.abbrev;
    EXPECT_GT(r.t2sol_bdw, 0.0) << r.abbrev;
  }
}

TEST(PaperData, DerivedSpeedups) {
  PaperDerived d;
  const auto* nekb = paper_row("NekB");
  EXPECT_GT(d.speedup_knl_vs_bdw(*nekb), 1.5);  // NekB likes the Phi
  const auto* ngsa = paper_row("NGSA");
  EXPECT_LT(d.speedup_knl_vs_bdw(*ngsa), 0.2);  // NGSA collapses
}

TEST(Methodology, LadderHasThreeCandidatesOnSmallHosts) {
  // Regression: on hosts with hardware_concurrency() <= 2 the raw ladder
  // {1, hw/4, hw/2, hw, 2*hw} collapses to two entries; the padded
  // ladder must still offer >= 3 distinct candidates.
  for (unsigned hw : {0u, 1u, 2u, 3u, 4u, 6u, 8u}) {
    const auto ladder = parallelism_ladder(hw);
    EXPECT_GE(ladder.size(), 3u) << "hw=" << hw;
    EXPECT_TRUE(std::is_sorted(ladder.begin(), ladder.end())) << "hw=" << hw;
    EXPECT_EQ(std::adjacent_find(ladder.begin(), ladder.end()), ladder.end())
        << "hw=" << hw;
    EXPECT_EQ(ladder.front(), 1u) << "hw=" << hw;
    // Over-subscription point is always explored.
    const unsigned over = 2 * std::max(1u, hw);
    EXPECT_NE(std::find(ladder.begin(), ladder.end(), over), ladder.end())
        << "hw=" << hw;
  }
}

TEST(Methodology, LadderCoversWideHosts) {
  const auto ladder = parallelism_ladder(64);
  for (unsigned expected : {1u, 2u, 4u, 16u, 32u, 64u, 128u}) {
    EXPECT_NE(std::find(ladder.begin(), ladder.end(), expected),
              ladder.end())
        << expected;
  }
}

TEST(Methodology, FindsBestParallelism) {
  const auto kernel = kernels::make("NekB");
  const auto choice = find_best_parallelism(*kernel, 0.15, 1);
  EXPECT_GE(choice.threads, 1u);
  EXPECT_GT(choice.best_seconds, 0.0);
  EXPECT_GE(choice.tried.size(), 3u);
  for (const auto& [t, s] : choice.tried) {
    EXPECT_GE(s, choice.best_seconds);
  }
}

TEST(Methodology, PerformanceRunKeepsFastest) {
  const auto kernel = kernels::make("BABL2");
  kernels::RunConfig cfg;
  cfg.scale = 0.15;
  const auto run = performance_run(*kernel, cfg, 3);
  EXPECT_EQ(run.timing.best,
            std::min({run.timing.best, run.timing.median, run.timing.mean}));
  EXPECT_TRUE(run.best_meas.verified);
  EXPECT_GE(run.timing.spread_fast_half, 0.0);
}

TEST(DomainUtil, LabelMapping) {
  EXPECT_EQ(domain_of_label("geo"), kernels::Domain::geoscience);
  EXPECT_EQ(domain_of_label("qcd"), kernels::Domain::lattice_qcd);
  EXPECT_THROW(domain_of_label("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace fpr::study
