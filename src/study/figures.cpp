#include "study/figures.hpp"

#include <algorithm>
#include <cmath>

#include "arch/machines.hpp"
#include "common/units.hpp"
#include "model/roofline.hpp"
#include "study/domain_util.hpp"

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

}  // namespace fpr::study
