// Unit tests for the execution-time model, roofline, and memory profile.
#include <gtest/gtest.h>

#include <algorithm>

#include "arch/machines.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"
#include "model/roofline.hpp"

namespace fpr::model {
namespace {

// A synthetic compute-heavy FP64 workload (HPL-like).
kernels::WorkloadMeasurement compute_heavy() {
  kernels::WorkloadMeasurement w;
  w.name = "synthetic-compute";
  w.ops.fp64 = 2'000'000'000'000ull;  // 2 Tflop
  w.ops.int_ops = 100'000'000'000ull;
  w.ops.bytes_read = 40'000'000'000ull;
  w.ops.bytes_written = 10'000'000'000ull;
  w.working_set_bytes = 8ull << 30;
  w.access = memsim::AccessPatternSpec::single(memsim::BlockedPattern{
      .matrix_bytes = 8ull << 30, .tile_bytes = 1 << 20, .tile_reuse = 32});
  w.traits.vec_eff = 0.8;
  w.traits.int_eff = 0.5;
  return w;
}

// A synthetic streaming workload (BabelStream-like).
kernels::WorkloadMeasurement bandwidth_heavy() {
  kernels::WorkloadMeasurement w;
  w.name = "synthetic-stream";
  w.ops.fp64 = 5'000'000'000ull;
  w.ops.int_ops = 2'000'000'000ull;
  w.ops.bytes_read = 400'000'000'000ull;
  w.ops.bytes_written = 200'000'000'000ull;
  w.working_set_bytes = 6ull << 30;
  w.access = memsim::AccessPatternSpec::single(memsim::StreamPattern{
      .bytes_per_array = 2ull << 30, .arrays = 3, .writes_per_iter = 1});
  w.traits.vec_eff = 0.85;
  w.traits.int_eff = 0.85;
  return w;
}

TEST(MemProfile, StreamMostlyLeavesL2) {
  const auto w = bandwidth_heavy();
  const auto mp = profile_memory(arch::bdw(), w, 200'000);
  EXPECT_GT(mp.offchip_fraction, 0.05);  // streams don't cache
  EXPECT_GT(mp.offchip_bytes, 0.0);
  EXPECT_GT(mp.effective_bw_gbs, 0.0);
}

TEST(MemProfile, BlockedMostlyStaysOnChip) {
  const auto w = compute_heavy();
  const auto mp = profile_memory(arch::bdw(), w, 200'000);
  const auto ws = profile_memory(arch::bdw(), bandwidth_heavy(), 200'000);
  EXPECT_LT(mp.offchip_fraction, ws.offchip_fraction);
}

TEST(MemProfile, McdramCaptureForFittingSet) {
  const auto w = bandwidth_heavy();  // 6 GiB < 16 GiB MCDRAM
  // Long trace so steady-state passes dominate the cold fill.
  const auto mp = profile_memory(arch::knl(), w, 600'000);
  EXPECT_GT(mp.mcdram_capture, 0.8);
  EXPECT_GT(mp.effective_bw_gbs, arch::knl().dram_bw_gbs);
}

TEST(MemProfile, PerCoreSliceDividesFootprints) {
  auto spec = memsim::AccessPatternSpec::single(memsim::StreamPattern{
      .bytes_per_array = 64ull << 20, .arrays = 3});
  const auto sliced = per_core_slice(spec, 64.0);
  const auto& p = std::get<memsim::StreamPattern>(sliced.components[0].pattern);
  EXPECT_EQ(p.bytes_per_array, (64ull << 20) / 64);
}

TEST(MemProfile, GatherTablesPreserveCapacityRatio) {
  // Shared tables are divided by the core count too: the shared caches
  // hold one copy, so the per-core simulation must preserve the
  // capacity/footprint ratio (see per_core_slice).
  auto spec = memsim::AccessPatternSpec::single(memsim::GatherPattern{
      .table_bytes = 1ull << 30, .elem_bytes = 8});
  const auto sliced = per_core_slice(spec, 64.0);
  const auto& p = std::get<memsim::GatherPattern>(sliced.components[0].pattern);
  EXPECT_EQ(p.table_bytes, (1ull << 30) / 64);
}

TEST(ExecModel, ComputeWorkloadIsComputeBound) {
  const auto w = compute_heavy();
  for (const auto& cpu : arch::all_machines()) {
    const auto mp = profile_memory(cpu, w, 150'000);
    const auto ev = evaluate_at_turbo(cpu, w, mp);
    EXPECT_EQ(ev.bound, Bound::compute) << cpu.short_name;
    EXPECT_GT(ev.gflops, 0.0);
  }
}

TEST(ExecModel, StreamWorkloadIsBandwidthBound) {
  const auto w = bandwidth_heavy();
  for (const auto& cpu : arch::all_machines()) {
    const auto mp = profile_memory(cpu, w, 150'000);
    const auto ev = evaluate_at_turbo(cpu, w, mp);
    EXPECT_EQ(ev.bound, Bound::bandwidth) << cpu.short_name;
  }
}

TEST(ExecModel, ComputeTimeScalesInverselyWithFrequency) {
  const auto w = compute_heavy();
  const auto cpu = arch::knl();
  const auto mp = profile_memory(cpu, w, 150'000);
  const auto lo = evaluate(cpu, 1.0, w, mp);
  const auto hi = evaluate(cpu, 1.3, w, mp);
  EXPECT_NEAR(lo.seconds / hi.seconds, 1.3, 0.05);
}

TEST(ExecModel, StreamTimeInsensitiveToFrequency) {
  const auto w = bandwidth_heavy();
  const auto cpu = arch::knl();
  const auto mp = profile_memory(cpu, w, 150'000);
  const auto lo = evaluate(cpu, 1.0, w, mp);
  const auto hi = evaluate(cpu, 1.3, w, mp);
  EXPECT_LT(lo.seconds / hi.seconds, 1.12);  // far below the 1.3x ratio
}

TEST(ExecModel, HigherPeakMeansFasterComputeBound) {
  const auto w = compute_heavy();
  const auto knl_mp = profile_memory(arch::knl(), w, 150'000);
  const auto knm_mp = profile_memory(arch::knm(), w, 150'000);
  const auto bdw_mp = profile_memory(arch::bdw(), w, 150'000);
  const auto t_knl = evaluate_at_turbo(arch::knl(), w, knl_mp).seconds;
  const auto t_knm = evaluate_at_turbo(arch::knm(), w, knm_mp).seconds;
  const auto t_bdw = evaluate_at_turbo(arch::bdw(), w, bdw_mp).seconds;
  // FP64-heavy compute: both Phis beat BDW.
  EXPECT_LT(t_knl, t_bdw);
  EXPECT_LT(t_knm, t_bdw);
}

TEST(ExecModel, PhiAdjustScalesOps) {
  kernels::WorkloadMeasurement w = compute_heavy();
  w.traits.phi_adjust.fp64 = 2.0;
  const auto phi_ops = w.ops_on(true);
  const auto bdw_ops = w.ops_on(false);
  EXPECT_EQ(phi_ops.fp64, 2 * bdw_ops.fp64);
  EXPECT_EQ(phi_ops.int_ops, bdw_ops.int_ops);
}

TEST(ExecModel, IoTermDominatesForIoKernels) {
  kernels::WorkloadMeasurement w;
  w.name = "synthetic-io";
  w.ops.int_ops = 1'000'000'000ull;
  w.ops.bytes_read = 100'000'000ull;
  w.ops.bytes_written = 400'000'000ull;
  w.working_set_bytes = 64 << 20;
  w.access = memsim::AccessPatternSpec::single(memsim::StreamPattern{
      .bytes_per_array = 64 << 20, .arrays = 2});
  w.traits.io_write_bytes = 433.8e6;
  w.traits.int_eff = 0.05;
  const auto cpu = arch::knl();
  const auto mp = profile_memory(cpu, w, 100'000);
  const auto ev = evaluate_at_turbo(cpu, w, mp);
  EXPECT_EQ(ev.bound, Bound::io);
  // I/O scales with frequency (paper Sec. IV-E).
  const auto lo = evaluate(cpu, 1.0, w, mp);
  EXPECT_GT(lo.seconds, ev.seconds);
}

TEST(ExecModel, LatencyTermRespondsToDependentRefs) {
  kernels::WorkloadMeasurement w = bandwidth_heavy();
  w.traits.latency_dep_fraction = 0.5;
  const auto cpu = arch::knl();
  const auto mp = profile_memory(cpu, w, 150'000);
  EXPECT_GT(mp.dep_refs, 0.0);
  const auto ev = evaluate_at_turbo(cpu, w, mp);
  kernels::WorkloadMeasurement w2 = bandwidth_heavy();
  const auto mp2 = profile_memory(cpu, w2, 150'000);
  const auto ev2 = evaluate_at_turbo(cpu, w2, mp2);
  EXPECT_GT(ev.seconds, ev2.seconds);
}

TEST(ExecModel, PowerWithinTdpEnvelope) {
  for (const auto& cpu : arch::all_machines()) {
    const auto w = compute_heavy();
    const auto mp = profile_memory(cpu, w, 100'000);
    const auto ev = evaluate_at_turbo(cpu, w, mp);
    EXPECT_GT(ev.power_w, 0.2 * cpu.tdp_w);
    EXPECT_LE(ev.power_w, cpu.tdp_w * 1.001);
  }
}

TEST(Roofline, AttainableIsMinOfRoofs) {
  const auto cpu = arch::bdw();
  const double ridge = ridge_point(cpu, true);
  EXPECT_NEAR(attainable(cpu, ridge, true),
              cpu.peak_gflops(arch::Precision::fp64), 1e-6);
  EXPECT_LT(attainable(cpu, ridge / 10, true),
            cpu.peak_gflops(arch::Precision::fp64) / 9.0);
  EXPECT_DOUBLE_EQ(attainable(cpu, ridge * 10, true),
                   cpu.peak_gflops(arch::Precision::fp64));
}

TEST(Roofline, MeasuredBelowCeiling) {
  const auto w = bandwidth_heavy();
  const auto cpu = arch::bdw();
  const auto mp = profile_memory(cpu, w, 150'000);
  const auto ev = evaluate_at_turbo(cpu, w, mp);
  const auto pt = roofline_point(cpu, w, mp, ev);
  EXPECT_LE(pt.achieved_gflops, pt.attainable_gflops * 1.05);
  EXPECT_TRUE(pt.memory_side);
}

TEST(Roofline, TallyResolvedConsistentlyWithAchieved) {
  // The regression: roofline_point used the raw BDW-side tally for the
  // AI numerator while ev.gflops divided the machine-resolved
  // (Phi-adjusted) tally by the modeled time — a Phi kernel with a
  // phi_adjust multiplier paired a BDW numerator with a Phi achieved
  // point and could land above its own roof. Both sides must use
  // ops_on(is_phi), and the achieved point must respect the ceiling on
  // every machine.
  kernels::WorkloadMeasurement w = compute_heavy();
  w.traits.phi_adjust.fp64 = 2.0;  // Laghos-style op inflation on Phi
  for (const auto& cpu : arch::all_machines()) {
    const auto mp = profile_memory(cpu, w, 150'000);
    const auto ev = evaluate_at_turbo(cpu, w, mp);
    const auto pt = roofline_point(cpu, w, mp, ev);
    const auto ops = w.ops_on(cpu.has_mcdram());
    // AI numerator is the resolved tally (2x fp64 on the Phis).
    EXPECT_NEAR(pt.arithmetic_intensity,
                static_cast<double>(ops.fp_total()) /
                    std::max(1.0, mp.offchip_bytes),
                1e-12)
        << cpu.short_name;
    EXPECT_LE(pt.achieved_gflops, pt.attainable_gflops * 1.0001)
        << cpu.short_name;
  }
}

TEST(Roofline, AchievedRespectsCeilingForStreamsOnPhi) {
  // Bandwidth-bound on KNL: the roof must use the effective (cache-mode
  // MCDRAM) bandwidth, or a captured stream would sit far above a
  // DDR-only roof.
  const auto w = bandwidth_heavy();
  for (const auto& cpu : arch::all_machines()) {
    const auto mp = profile_memory(cpu, w, 150'000);
    const auto ev = evaluate_at_turbo(cpu, w, mp);
    const auto pt = roofline_point(cpu, w, mp, ev);
    EXPECT_LE(pt.achieved_gflops, pt.attainable_gflops * 1.0001)
        << cpu.short_name;
    EXPECT_TRUE(pt.memory_side) << cpu.short_name;
  }
}

TEST(Roofline, AttainableHonorsBandwidthRoofParameter) {
  const auto cpu = arch::knl();
  // Below the ridge the roof scales linearly with the bandwidth.
  EXPECT_NEAR(attainable(cpu, 1.0, true, 2.0 * cpu.dram_bw_gbs),
              2.0 * attainable(cpu, 1.0, true), 1e-9);
  // 0 falls back to the flat DRAM roof.
  EXPECT_DOUBLE_EQ(attainable(cpu, 1.0, true, 0.0),
                   attainable(cpu, 1.0, true));
}

TEST(ExecModel, BoundToString) {
  EXPECT_EQ(to_string(Bound::compute), "compute");
  EXPECT_EQ(to_string(Bound::bandwidth), "bandwidth");
  EXPECT_EQ(to_string(Bound::latency), "latency");
  EXPECT_EQ(to_string(Bound::io), "io");
}

}  // namespace
}  // namespace fpr::model
