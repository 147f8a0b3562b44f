#include "arch/machines.hpp"

#include <utility>

namespace fpr::arch {

// Numbers are Table I of the paper; microarchitectural details (port
// counts, latencies) from the KNL/KNM Hot Chips disclosures cited there
// ([7], [8]) and standard Broadwell references. Latency values are model
// parameters, chosen so that the latency-bound proxies (HPCG, XSBench on
// Phi) reproduce the paper's qualitative behaviour.

CpuSpec knl() {
  CpuSpec c;
  c.name = "Knights Landing";
  c.short_name = "KNL";
  c.model = "Xeon Phi 7210F";
  c.cores = 64;
  c.smt = 4;
  c.base_ghz = 1.3;
  c.turbo_ghz = 1.5;
  c.peak_ref_ghz = 1.3;  // 64 * 1.3 * 32 = 2662.4 Gflop/s FP64
  c.freq_states_ghz = {1.0, 1.1, 1.2, 1.3};
  c.tdp_w = 230.0;
  c.dram_gib = 96.0;
  c.dram_bw_gbs = 71.0;  // measured Triad (Table I)
  c.mcdram_gib = 16.0;
  c.mcdram_bw_gbs = 439.0;  // flat-mode Triad
  c.mcdram_hit_eff = 0.86;  // paper Sec. IV-C: BABL2 at 86% of flat mode
  c.llc_mib = 32.0;  // aggregated L2 (1 MiB per 2-core tile)
  c.l1_kib = 32;
  c.l1_assoc = 8;
  c.l2_kib_per_core = 512;
  c.l2_assoc = 16;
  c.llc_assoc = 16;
  c.isa = "AVX-512";
  // Two 512-bit VPUs per core, both FP64- and FP32-capable.
  c.fp64_fpu = {.units = 2, .vector_bits = 512, .pump = 1};   // 32 /cyc
  c.fp32_fpu = {.units = 2, .vector_bits = 512, .pump = 1};   // 64 /cyc
  c.fpu_issue_eff = 0.70;  // 2-wide decode feeding 2 VPUs + loads
  c.int_ops_per_cycle = 32;  // 2 vector ALU ports x 16 lanes
  c.dram_latency_ns = 155.0;    // KNL DDR4 load-to-use, quadrant mode
  c.mcdram_latency_ns = 174.0;  // MCDRAM is high-bandwidth, NOT low-latency
  return c;
}

CpuSpec knm() {
  CpuSpec c;
  c.name = "Knights Mill";
  c.short_name = "KNM";
  c.model = "Xeon Phi 7295";
  c.cores = 72;
  c.smt = 4;
  c.base_ghz = 1.5;
  c.turbo_ghz = 1.6;
  c.peak_ref_ghz = 1.5;  // 72 * 1.5 * 16 = 1728 Gflop/s FP64
  c.freq_states_ghz = {1.0, 1.1, 1.2, 1.3, 1.4, 1.5};
  c.tdp_w = 320.0;
  c.dram_gib = 96.0;
  c.dram_bw_gbs = 88.0;
  c.mcdram_gib = 16.0;
  c.mcdram_bw_gbs = 430.0;
  c.mcdram_hit_eff = 0.75;  // paper Sec. IV-C: BABL2 at 75% of flat mode
  c.llc_mib = 36.0;
  c.l1_kib = 32;
  c.l1_assoc = 8;
  c.l2_kib_per_core = 512;
  c.l2_assoc = 16;
  c.llc_assoc = 16;
  c.isa = "AVX-512";
  // One 512-bit pipe retains FP64; the second pipe is replaced by two
  // double-pumped VNNI units: SP-capable, no DP support.
  c.fp64_fpu = {.units = 1, .vector_bits = 512, .pump = 1};  // 16 /cyc
  c.fp32_fpu = {.units = 2, .vector_bits = 512, .pump = 2};  // 128 /cyc
  c.fpu_issue_eff = 0.92;  // single DP pipe is easy to keep fed
  // Plain SP vector code cannot dual-pump the VNNI units and pays their
  // longer latency; only the MKL-DNN VNNI path reaches the 13.8 Tflop/s.
  c.fp32_generic_eff = 0.6;
  c.int_ops_per_cycle = 32;
  c.dram_latency_ns = 155.0;
  c.mcdram_latency_ns = 174.0;
  return c;
}

CpuSpec bdw() {
  CpuSpec c;
  c.name = "Broadwell-EP";
  c.short_name = "BDW";
  c.model = "2x Xeon E5-2650v4";
  c.cores = 24;  // accumulated over both sockets, as in Table I
  c.smt = 2;
  c.base_ghz = 2.2;
  c.turbo_ghz = 2.9;
  c.peak_ref_ghz = 1.8;  // AVX base: 24 * 1.8 * 16 = 691.2 Gflop/s FP64
  c.freq_states_ghz = {1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2};
  c.tdp_w = 210.0;
  c.dram_gib = 256.0;
  c.dram_bw_gbs = 122.0;
  c.mcdram_gib = 0.0;
  c.mcdram_bw_gbs = 0.0;
  c.llc_mib = 60.0;  // 2 x 30 MiB L3
  c.l1_kib = 32;
  c.l1_assoc = 8;
  c.l2_kib_per_core = 256;
  c.l2_assoc = 8;
  c.llc_assoc = 20;
  c.isa = "AVX2";
  // Two 256-bit FMA ports per core.
  c.fp64_fpu = {.units = 2, .vector_bits = 256, .pump = 1};  // 16 /cyc
  c.fp32_fpu = {.units = 2, .vector_bits = 256, .pump = 1};  // 32 /cyc
  c.fpu_issue_eff = 0.95;  // 4-wide OoO core
  c.int_ops_per_cycle = 24;  // 3 vector ALU ports x 8 lanes
  c.dram_latency_ns = 90.0;  // big-core OoO hides more latency
  c.mcdram_latency_ns = 0.0;
  return c;
}

std::vector<CpuSpec> all_machines() { return {knl(), knm(), bdw()}; }

std::optional<CpuSpec> find_machine(std::string_view short_name) {
  for (auto& cpu : all_machines()) {
    if (cpu.short_name == short_name) return std::move(cpu);
  }
  return std::nullopt;
}

CpuSpec with_fpu_of(const CpuSpec& base, const CpuSpec& fpu_donor) {
  CpuSpec c = base;
  c.fp64_fpu = fpu_donor.fp64_fpu;
  c.fp32_fpu = fpu_donor.fp32_fpu;
  c.name = base.name + " + " + fpu_donor.short_name + " FPU";
  c.short_name = base.short_name + "+" + fpu_donor.short_name + "fpu";
  return c;
}

}  // namespace fpr::arch
