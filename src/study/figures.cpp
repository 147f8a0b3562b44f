#include "study/figures.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "arch/machines.hpp"
#include "common/units.hpp"
#include "model/roofline.hpp"
#include "study/domain_util.hpp"
#include "study/paper_data.hpp"

namespace fpr::study {

namespace {

// Fig. 2 filters (paper caption): negligible-FP proxies and MiniAMR.
bool fp_significant(const KernelResult& k) {
  return k.info.abbrev != "MxIO" && k.info.abbrev != "MTri" &&
         k.info.abbrev != "NGSA" && k.info.abbrev != "MAMR";
}

bool is_reference_stream(const KernelResult& k) {
  return k.info.abbrev == "BABL2" || k.info.abbrev == "BABL14";
}

TextTable versus_table() {
  return TextTable({"App", "Paper", "Model", "Model/Paper"});
}

void add_versus_row(TextTable& t, const std::string& app, double paper,
                    double model) {
  auto row = t.row();
  row.cell(app).num(paper, 3).num(model, 3);
  if (paper > 0.0) {
    row.num(model / paper, 2);
  } else {
    row.cell("-");
  }
  row.done();
}

/// A kernel's (paper, model) values in one comparison; nullopt skips it.
using Versus = std::optional<std::pair<double, double>>;

/// One comparison row per kernel that Table IV covers and `versus`
/// does not skip, in study order.
template <class F>
TextTable versus_paper(const StudyResults& r, F versus) {
  TextTable t = versus_table();
  for (const auto& k : r.kernels) {
    const PaperRow* p = paper_row(k.info.abbrev);
    if (p == nullptr) continue;
    if (const Versus v = versus(*p, k)) {
      add_versus_row(t, k.info.abbrev, v->first, v->second);
    }
  }
  return t;
}

/// Fig. 4's cache-mode capture check (Sec. IV-C): vectors that fit in
/// MCDRAM reach 86% (KNL) and 75% (KNM) of its flat-mode Triad; BABL14's
/// do not, and KNL falls to near-DRAM speed.
TextTable capture_vs_paper(const StudyResults& r) {
  TextTable t = versus_table();
  if (const auto* k = r.find("BABL2")) {
    add_versus_row(t, "BABL2 KNL", 439.0 * 0.86,
                   k->on("KNL").perf.mem_throughput_gbs);
    add_versus_row(t, "BABL2 KNM", 430.0 * 0.75,
                   k->on("KNM").perf.mem_throughput_gbs);
  }
  if (const auto* k = r.find("BABL14")) {
    add_versus_row(t, "BABL14 KNL", 75.0,
                   k->on("KNL").perf.mem_throughput_gbs);
  }
  return t;
}

/// Sec. V-B: over their annual node-hours, ANL and the K computer would
/// reach ~14% and ~11% of peak.
TextTable projection_vs_paper(const StudyResults& r) {
  TextTable t = versus_table();
  for (const auto& site : site_utilization()) {
    const double paper = site.site.rfind("ANL", 0) == 0     ? 14.0
                         : site.site.rfind("R-CCS", 0) == 0 ? 11.0
                                                            : 0.0;
    if (paper == 0.0) continue;
    for (const char* m : {"KNL", "BDW"}) {
      add_versus_row(t, site.site + " " + m, paper,
                     project_site_pct_peak(site, r, m));
    }
  }
  return t;
}

double paper_t2sol(const PaperRow& p, const std::string& machine) {
  return machine == "KNL"   ? p.t2sol_knl
         : machine == "KNM" ? p.t2sol_knm
                            : p.t2sol_bdw;
}

std::string triad_ceilings() {
  std::ostringstream os;
  os << "Flat-mode Triad ceilings (dotted lines in the paper):\n";
  for (const auto& cpu : arch::all_machines()) {
    os << "  " << cpu.short_name << ": DRAM " << fmt_double(cpu.dram_bw_gbs, 0)
       << " GB/s";
    if (cpu.has_mcdram()) {
      os << ", MCDRAM " << fmt_double(cpu.mcdram_bw_gbs, 0) << " GB/s";
    }
    os << "\n";
  }
  return os.str();
}

std::string roofline_notes() {
  const auto bdw = arch::bdw();
  std::ostringstream os;
  os << "Roofs: FP64 peak " << bdw.peak_gflops(arch::Precision::fp64)
     << " Gflop/s; Triad BW " << bdw.dram_bw_gbs << " GB/s; ridge at "
     << fmt_double(model::ridge_point(bdw, true), 2) << " flop/byte\n"
     << "Expected qualitative picture (paper Sec. IV-D): nearly all "
        "proxies sit on the memory side of the ridge;\nHPL is the "
        "compute-side exception; Laghos under-performs its ceiling (the "
        "paper's noted outlier).\n";
  return os.str();
}

}  // namespace

TextTable table1_hardware() {
  TextTable t({"Feature", "KNL", "KNM", "Broadwell-EP"});
  const auto knl = arch::knl();
  const auto knm = arch::knm();
  const auto bdw = arch::bdw();
  auto row3 = [&](const std::string& name, auto get) {
    t.add_row({name, get(knl), get(knm), get(bdw)});
  };
  row3("CPU Model", [](const arch::CpuSpec& c) { return c.model; });
  row3("#{Cores} (HT)", [](const arch::CpuSpec& c) {
    return std::to_string(c.cores) + " (" + std::to_string(c.smt) + "x)";
  });
  row3("Base Frequency", [](const arch::CpuSpec& c) {
    return fmt_double(c.base_ghz, 1) + " GHz";
  });
  row3("Max Turbo Freq.", [](const arch::CpuSpec& c) {
    return fmt_double(c.turbo_ghz, 1) + " GHz";
  });
  row3("TDP", [](const arch::CpuSpec& c) {
    return fmt_double(c.tdp_w, 0) + " W";
  });
  row3("DRAM Size", [](const arch::CpuSpec& c) {
    return fmt_double(c.dram_gib, 0) + " GiB";
  });
  row3("-> Triad BW", [](const arch::CpuSpec& c) {
    return fmt_double(c.dram_bw_gbs, 0) + " GB/s";
  });
  row3("MCDRAM Size", [](const arch::CpuSpec& c) {
    return c.has_mcdram() ? fmt_double(c.mcdram_gib, 0) + " GiB"
                          : std::string("N/A");
  });
  row3("-> Triad BW", [](const arch::CpuSpec& c) {
    return c.has_mcdram() ? fmt_double(c.mcdram_bw_gbs, 0) + " GB/s"
                          : std::string("N/A");
  });
  row3("MCDRAM Mode", [](const arch::CpuSpec& c) {
    return c.has_mcdram() ? std::string("Cache") : std::string("N/A");
  });
  row3("LLC Size", [](const arch::CpuSpec& c) {
    return fmt_double(c.llc_mib, 0) + " MiB";
  });
  row3("Inst. Set Extension",
       [](const arch::CpuSpec& c) { return c.isa; });
  row3("FP32 Peak Perf.", [](const arch::CpuSpec& c) {
    return fmt_double(c.peak_gflops(arch::Precision::fp32), 0) + " Gflop/s";
  });
  row3("FP64 Peak Perf.", [](const arch::CpuSpec& c) {
    return fmt_double(c.peak_gflops(arch::Precision::fp64), 0) + " Gflop/s";
  });
  return t;
}

TextTable table2_categorization() {
  TextTable t({"Suite", "App", "Scientific/Engineering Domain",
               "Compute Pattern", "Language"});
  for (const auto& k : kernels::make_all()) {
    const auto& i = k->info();
    if (i.suite == kernels::Suite::reference) continue;  // omitted in paper
    t.add_row({std::string(to_string(i.suite)), i.name,
               std::string(to_string(i.domain)),
               std::string(to_string(i.pattern)), i.language});
  }
  return t;
}

TextTable table3_metrics() {
  TextTable t({"Raw Metric", "Paper Method/Tool", "This Reproduction"});
  t.add_row({"Runtime [s]", "MPI_Wtime()", "assay regions (WallTimer)"});
  t.add_row({"#{FP / integer operations}", "Intel SDE",
             "counters:: instrumented execution"});
  t.add_row({"#{Branch operations}", "Intel SDE", "counters::add_branch"});
  t.add_row({"Memory throughput [B/s]", "PCM (pcm-memory.x)",
             "memsim hierarchy simulation + model"});
  t.add_row({"#{L2/LLC cache hits/misses}", "PCM (pcm.x)",
             "memsim set-associative simulation"});
  t.add_row({"Consumed Power [Watt]", "PCM (pcm-power.x)",
             "model power estimate (TDP-scaled)"});
  t.add_row({"SIMD instructions per cycle", "perf + VTune",
             "KernelTraits::vec_eff calibration"});
  t.add_row({"Memory/Back-end boundedness", "perf + VTune",
             "model boundedness classifier"});
  return t;
}

TextTable fig1_opmix(const StudyResults& r) {
  TextTable t({"App", "Machine", "FP64 %", "FP32 %", "INT %"});
  for (const auto& k : r.kernels) {
    if (is_reference_stream(k)) continue;
    for (const char* m : {"BDW", "KNL", "KNM"}) {
      const bool is_phi = std::string(m) != "BDW";
      const auto ops = k.meas.ops_on(is_phi);
      t.row()
          .cell(k.info.abbrev)
          .cell(m)
          .num(ops.fp64_share() * 100.0, 1)
          .num(ops.fp32_share() * 100.0, 1)
          .num(ops.int_share() * 100.0, 1)
          .done();
    }
  }
  return t;
}

TextTable fig2_relative_flops(const StudyResults& r) {
  TextTable t({"App", "KNLrel", "KNMrel", "BDWrel"});
  for (const auto& k : r.kernels) {
    if (!fp_significant(k) || is_reference_stream(k)) continue;
    const double bdw = k.on("BDW").perf.gflops;
    if (bdw <= 0.0) continue;
    t.row()
        .cell(k.info.abbrev)
        .num(k.on("KNL").perf.gflops / bdw, 2)
        .num(k.on("KNM").perf.gflops / bdw, 2)
        .num(1.0, 2)
        .done();
  }
  return t;
}

TextTable fig2_pct_of_peak(const StudyResults& r) {
  TextTable t({"App", "KNLabs %", "KNMabs %", "BDWabs %"});
  for (const auto& k : r.kernels) {
    if (!fp_significant(k) || is_reference_stream(k)) continue;
    t.row()
        .cell(k.info.abbrev)
        .num(k.on("KNL").perf.pct_of_peak, 2)
        .num(k.on("KNM").perf.pct_of_peak, 2)
        .num(k.on("BDW").perf.pct_of_peak, 2)
        .done();
  }
  return t;
}

TextTable fig3_speedup(const StudyResults& r) {
  TextTable t({"App", "KNL", "KNM", "BDW"});
  for (const auto& k : r.kernels) {
    if (is_reference_stream(k)) continue;
    const double bdw = k.on("BDW").perf.seconds;
    t.row()
        .cell(k.info.abbrev)
        .num(bdw / k.on("KNL").perf.seconds, 2)
        .num(bdw / k.on("KNM").perf.seconds, 2)
        .num(1.0, 2)
        .done();
  }
  return t;
}

TextTable fig4_membw(const StudyResults& r) {
  TextTable t({"App", "KNL GB/s", "KNM GB/s", "BDW GB/s"});
  for (const auto& k : r.kernels) {
    t.row()
        .cell(k.info.abbrev)
        .num(k.on("KNL").perf.mem_throughput_gbs, 1)
        .num(k.on("KNM").perf.mem_throughput_gbs, 1)
        .num(k.on("BDW").perf.mem_throughput_gbs, 1)
        .done();
  }
  return t;
}

TextTable fig5_roofline(const StudyResults& r) {
  TextTable t({"App", "AI [flop/byte]", "Achieved Gflop/s",
               "Attainable Gflop/s", "Side"});
  const auto bdw = arch::bdw();
  for (const auto& k : r.kernels) {
    if (!fp_significant(k) || is_reference_stream(k)) continue;
    const auto& m = k.on("BDW");
    const auto pt = model::roofline_point(bdw, k.meas, m.mem, m.perf);
    t.row()
        .cell(k.info.abbrev)
        .num(pt.arithmetic_intensity, 3)
        .num(pt.achieved_gflops, 1)
        .num(pt.attainable_gflops, 1)
        .cell(pt.memory_side ? "memory" : "compute")
        .done();
  }
  return t;
}

TextTable fig6_freqscale(const StudyResults& r,
                         const std::string& machine_short_name) {
  // Columns: one per frequency state of that machine.
  std::vector<std::string> headers{"App"};
  const auto cpu = arch::find_machine(machine_short_name);
  if (!cpu) {
    throw std::invalid_argument("unknown machine " + machine_short_name);
  }
  for (const auto& fs : cpu->frequency_sweep()) {
    headers.push_back(fmt_double(fs.ghz, 1) + " GHz" +
                      (fs.turbo ? " +TB" : ""));
  }
  TextTable t(std::move(headers));
  for (const auto& k : r.kernels) {
    if (is_reference_stream(k)) continue;
    const auto& sweep = k.on(machine_short_name).freq_sweep;
    if (sweep.empty()) continue;
    auto row = t.row();
    row.cell(k.info.abbrev);
    const double slowest = sweep.front().second.seconds;
    for (const auto& [fs, ev] : sweep) {
      row.num(slowest / ev.seconds, 3);
    }
    row.done();
  }
  return t;
}

TextTable fig7_site_utilization(const StudyResults& r) {
  TextTable t({"Site", "geo", "chm", "phy", "qcd", "mat", "eng", "mcs",
               "bio", "oth", "Proj. %peak (BDW)", "Proj. %peak (KNL)"});
  for (const auto& site : site_utilization()) {
    const double pct_bdw = project_site_pct_peak(site, r, "BDW");
    const double pct = project_site_pct_peak(site, r, "KNL");
    t.row()
        .cell(site.site)
        .num(site.geo * 100, 0)
        .num(site.chm * 100, 0)
        .num(site.phy * 100, 0)
        .num(site.qcd * 100, 0)
        .num(site.mat * 100, 0)
        .num(site.eng * 100, 0)
        .num(site.mcs * 100, 0)
        .num(site.bio * 100, 0)
        .num(site.oth * 100, 0)
        .num(pct_bdw, 1)
        .num(pct, 1)
        .done();
  }
  return t;
}

TextTable table4_metrics(const StudyResults& r,
                         const std::string& machine_short_name) {
  TextTable t({"App", "t2sol [s]", "Gop (D)", "Gop (S)", "Gop (I)",
               "Power [W]", "L2h [%]", "LLh [%]", "MemBW [GB/s]", "Bound"});
  for (const auto& k : r.kernels) {
    if (is_reference_stream(k)) continue;
    const auto& m = k.on(machine_short_name);
    const bool is_phi = m.cpu.has_mcdram();
    const auto ops = k.meas.ops_on(is_phi);
    t.row()
        .cell(k.info.abbrev)
        .num(m.perf.seconds, 3)
        .num(static_cast<double>(ops.fp64) / kGiga, 1)
        .num(static_cast<double>(ops.fp32) / kGiga, 1)
        .num(static_cast<double>(ops.int_ops) / kGiga, 1)
        .num(m.perf.power_w, 1)
        .num(m.mem.l2_hit * 100.0, 0)
        .num(m.mem.llc_hit * 100.0, 0)
        .num(m.perf.mem_throughput_gbs, 1)
        .cell(std::string(model::to_string(m.perf.bound)))
        .done();
  }
  return t;
}

std::vector<ReportSection> paper_report(const StudyResults& r) {
  std::vector<ReportSection> s;
  auto add = [&s](std::string heading, TextTable table,
                  std::string notes = "") {
    s.push_back({std::move(heading), std::move(table), std::move(notes)});
  };
  const PaperDerived derived;
  add("Fig. 1 - operation mix (INT / FP32 / FP64)", fig1_opmix(r));
  add("Fig. 1 vs paper - FP64 share on BDW [%] (paper: Table IV op counts)",
      versus_paper(r, [](const PaperRow& p, const KernelResult& k) -> Versus {
        const double total = p.gop_fp64_bdw + p.gop_fp32_bdw + p.gop_int_bdw;
        if (total <= 0) return std::nullopt;
        return std::pair{p.gop_fp64_bdw / total * 100.0,
                         k.meas.ops_on(false).fp64_share() * 100.0};
      }));
  add("Fig. 2 (top) - relative Gflop/s vs BDW", fig2_relative_flops(r));
  add("Fig. 2 (bottom) - % of theoretical peak", fig2_pct_of_peak(r));
  add("Fig. 2 vs paper - relative Gflop/s of KNL over BDW (paper: derived "
      "from Table IV)",
      versus_paper(r, [](const PaperRow& p, const KernelResult& k) -> Versus {
        const double paper_knl =
            (p.gop_fp64_knl + p.gop_fp32_knl) / p.t2sol_knl;
        const double paper_bdw =
            (p.gop_fp64_bdw + p.gop_fp32_bdw) / p.t2sol_bdw;
        const double bdw = k.on("BDW").perf.gflops;
        if (paper_bdw <= 0.1 || bdw <= 0.0) return std::nullopt;
        return std::pair{paper_knl / paper_bdw, k.on("KNL").perf.gflops / bdw};
      }));
  add("Fig. 3 - time-to-solution speedup vs BDW", fig3_speedup(r));
  add("Fig. 3 vs paper - speedup of KNL over BDW (paper: Table IV)",
      versus_paper(r, [&](const PaperRow& p, const KernelResult& k) -> Versus {
        return std::pair{derived.speedup_knl_vs_bdw(p),
                         k.on("BDW").perf.seconds / k.on("KNL").perf.seconds};
      }));
  add("Fig. 3 vs paper - speedup of KNM over KNL (paper: Table IV)",
      versus_paper(r, [&](const PaperRow& p, const KernelResult& k) -> Versus {
        return std::pair{derived.knm_vs_knl(p),
                         k.on("KNL").perf.seconds / k.on("KNM").perf.seconds};
      }));
  add("Fig. 4 - memory throughput [GB/s]", fig4_membw(r), triad_ceilings());
  add("Fig. 4 vs paper - cache-mode capture [GB/s] (paper: 86% KNL / 75% "
      "KNM of the MCDRAM Triad when vectors fit; near-DRAM when not)",
      capture_vs_paper(r));
  add("Fig. 5 - BDW roofline coordinates", fig5_roofline(r), roofline_notes());
  for (const char* m : {"KNL", "KNM", "BDW"}) {
    add(std::string("Fig. 6 - frequency scaling on ") + m,
        fig6_freqscale(r, m));
  }
  s.back().notes =
      "Expected shape (paper Sec. IV-E): HPL/compute-bound apps track the "
      "frequency ratio;\nstream/bandwidth apps are flat; MACSio scales with "
      "frequency (kernel-bound I/O);\nHPCG is flat on the Phis "
      "(latency-bound).\n";
  add("Fig. 7 - site utilization by domain + projection",
      fig7_site_utilization(r));
  add("Fig. 7 vs paper - projected %peak (paper: Sec. V-B)",
      projection_vs_paper(r));
  for (const std::string m : {"KNL", "KNM", "BDW"}) {
    add("Table IV - measured metrics on " + m, table4_metrics(r, m));
    add("Table IV vs paper - kernel time-to-solution on " + m + " [s]",
        versus_paper(r, [&](const PaperRow& p, const KernelResult& k) {
          return Versus{std::pair{paper_t2sol(p, m), k.on(m).perf.seconds}};
        }));
  }
  return s;
}

}  // namespace fpr::study
