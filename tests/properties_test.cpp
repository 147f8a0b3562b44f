// Property-based tests (parameterized sweeps): invariants that must hold
// across input ranges, including the counted<T>-oracle validation of the
// explicit operation counting used by the kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "arch/machines.hpp"
#include "common/execution_context.hpp"
#include "common/rng.hpp"
#include "counters/counted.hpp"
#include "kernels/kernel.hpp"
#include "memsim/cache.hpp"
#include "memsim/hierarchy.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"

namespace fpr {
namespace {

using counters::counted;
using counters::OpTally;

// ---------------------------------------------------------------------
// counted<T> oracle: run small templated kernels with counted types and
// check the oracle count equals the analytic formula the instrumented
// kernels use.

template <typename Real>
Real triad(std::vector<Real>& a, const std::vector<Real>& b,
           const std::vector<Real>& c, Real s) {
  Real sink{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = b[i] + s * c[i];  // 2 flops per element
  }
  for (std::size_t i = 0; i < a.size(); ++i) sink += a[i];
  return sink;
}

class TriadOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TriadOracle, CountMatchesAnalyticFormula) {
  const std::size_t n = GetParam();
  std::vector<counted<double>> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  triad(a, b, c, counted<double>(0.4));
  const OpTally delta = ctx.counters().snapshot();
  // Analytic: 2 flops per element (triad) + 1 per element (sum).
  EXPECT_EQ(delta.fp64, 3 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TriadOracle,
                         ::testing::Values(1, 7, 64, 1000, 4097));

template <typename Real>
Real dot_oracle(const std::vector<Real>& u, const std::vector<Real>& v) {
  Real s{};
  for (std::size_t i = 0; i < u.size(); ++i) s += u[i] * v[i];
  return s;
}

class DotOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DotOracle, TwoFlopsPerElement) {
  const std::size_t n = GetParam();
  std::vector<counted<float>> u(n, 1.5f), v(n, 2.0f);
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  const auto s = dot_oracle(u, v);
  const OpTally delta = ctx.counters().snapshot();
  EXPECT_EQ(delta.fp32, 2 * n);
  EXPECT_FLOAT_EQ(s.value(), 3.0f * static_cast<float>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, DotOracle,
                         ::testing::Values(1, 16, 255, 2048));

// Generic matrix-multiply kernel over Real: validates the 2*m*n*k
// convention every dense kernel in this repo uses for GEMM counting.
template <typename Real>
void mini_gemm(const std::vector<Real>& a, const std::vector<Real>& b,
               std::vector<Real>& c, std::size_t m, std::size_t k,
               std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      Real acc{};
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[i * k + kk] * b[kk * n + j];
      }
      c[i * n + j] = acc;
    }
  }
}

class GemmOracle
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmOracle, TwoMnkFlops) {
  const auto [m, k, n] = GetParam();
  const auto mm = static_cast<std::size_t>(m);
  const auto kk = static_cast<std::size_t>(k);
  const auto nn = static_cast<std::size_t>(n);
  std::vector<counted<double>> a(mm * kk, 1.0), b(kk * nn, 2.0),
      c(mm * nn);
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  mini_gemm(a, b, c, mm, kk, nn);
  const OpTally delta = ctx.counters().snapshot();
  EXPECT_EQ(delta.fp64, 2u * mm * kk * nn);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmOracle,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(4, 8, 2),
                                           std::make_tuple(16, 16, 16),
                                           std::make_tuple(3, 31, 7)));

// ---------------------------------------------------------------------
// Cache properties.

class CacheSizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheSizeSweep, HitRateMonotonicInCapacity) {
  // Fixed working set, growing cache: hit rate must not decrease.
  const std::uint64_t size = GetParam();
  memsim::Cache small({.size_bytes = size, .line_bytes = 64,
                       .associativity = 4});
  memsim::Cache big({.size_bytes = size * 4, .line_bytes = 64,
                     .associativity = 4});
  // Cyclic working set of 2x the small capacity.
  const std::uint64_t ws = size * 2;
  for (int pass = 0; pass < 6; ++pass) {
    for (std::uint64_t a = 0; a < ws; a += 64) {
      small.access(a, false);
      big.access(a, false);
    }
  }
  EXPECT_GE(big.stats().hit_rate(), small.stats().hit_rate());
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheSizeSweep,
                         ::testing::Values(4096, 16384, 65536));

class AssocSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AssocSweep, FullAssocHoldsWorkingSetExactly) {
  // Working set == capacity with LRU: after the first pass, all hits.
  const std::uint32_t assoc = GetParam();
  const std::uint64_t lines = 64;
  memsim::Cache c({.size_bytes = lines * 64, .line_bytes = 64,
                   .associativity = assoc});
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t l = 0; l < lines; ++l) c.access(l * 64, false);
  }
  // Misses only in the first pass (the set-conflict-free case).
  EXPECT_EQ(c.stats().misses, lines);
}

INSTANTIATE_TEST_SUITE_P(Ways, AssocSweep, ::testing::Values(1, 2, 4, 8));

TEST(CacheStackProperty, MoreWaysNeverLowerHitsAtFixedSetCount) {
  // True LRU is a stack algorithm: at a fixed set count a set's A-way
  // contents are its A most recent lines, a subset of its (A+k)-way
  // contents, so every hit at A is a hit at A+k on the same trace. The
  // sweep crosses every block walker form (one-set and many-set, pow2
  // and magic-division set counts), the access() loop the other
  // packed-order widths take, and the stamp path above 16 ways.
  const std::uint64_t set_counts[] = {1, 3, 4};
  const std::uint32_t ways[] = {2, 4, 6, 8, 16, 20, 24};
  for (const std::uint64_t sets : set_counts) {
    // A hot region the wider caches hold plus scattered cold lines, so
    // the hit count moves with associativity.
    Xoshiro256 rng(2019 + sets);
    std::vector<memsim::MemRef> trace(60'000);
    for (auto& r : trace) {
      const std::uint64_t lines = rng.uniform() < 0.8 ? sets * 12 : sets * 64;
      r.addr = rng.below(lines) * 64 + rng.below(64);
      r.write = rng.uniform() < 0.25;
    }
    std::vector<std::uint64_t> hits;
    for (const std::uint32_t a : ways) {
      memsim::Cache c({.size_bytes = sets * a * 64, .line_bytes = 64,
                       .associativity = a});
      std::vector<memsim::MemRef> block;
      for (std::size_t i = 0; i < trace.size(); i += 1024) {
        const std::size_t end = std::min(trace.size(), i + 1024);
        block.assign(trace.begin() + static_cast<std::ptrdiff_t>(i),
                     trace.begin() + static_cast<std::ptrdiff_t>(end));
        c.access_many(block.data(), block.size());
      }
      if (!hits.empty()) {
        EXPECT_GE(c.stats().hits, hits.back())
            << sets << " set(s), " << a << " ways";
      }
      hits.push_back(c.stats().hits);
    }
    EXPECT_GT(hits.back(), hits.front()) << sets << " set(s)";
  }
}

// ---------------------------------------------------------------------
// Model properties.

class FreqSweepProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(FreqSweepProperty, TimeMonotoneNonIncreasingInFrequency) {
  // For any workload mix, raising core frequency never hurts.
  const std::string machine = GetParam();
  const arch::CpuSpec cpu = [&] {
    for (const auto& c : arch::all_machines()) {
      if (c.short_name == machine) return c;
    }
    throw std::logic_error("machine");
  }();
  for (double fp_share : {0.0, 0.3, 0.9}) {
    kernels::WorkloadMeasurement w;
    w.name = "sweep";
    w.ops.fp64 = static_cast<std::uint64_t>(1e12 * fp_share);
    w.ops.int_ops = static_cast<std::uint64_t>(1e12 * (1 - fp_share));
    w.ops.bytes_read = 200'000'000'000ull;
    w.working_set_bytes = 4ull << 30;
    w.access = memsim::AccessPatternSpec::single(memsim::StreamPattern{
        .bytes_per_array = 4ull << 30, .arrays = 3});
    const auto mp = model::profile_memory(cpu, w, 80'000);
    double prev = 1e300;
    for (const auto& fs : cpu.frequency_sweep()) {
      const auto ev = model::evaluate(cpu, fs.ghz, w, mp);
      EXPECT_LE(ev.seconds, prev * 1.0001);
      prev = ev.seconds;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, FreqSweepProperty,
                         ::testing::Values("KNL", "KNM", "BDW"));

TEST(ModelProperty, MoreBytesNeverFaster) {
  const auto cpu = arch::knl();
  kernels::WorkloadMeasurement w;
  w.name = "bytes";
  w.ops.fp64 = 1'000'000'000ull;
  w.working_set_bytes = 4ull << 30;
  w.access = memsim::AccessPatternSpec::single(memsim::StreamPattern{
      .bytes_per_array = 4ull << 30, .arrays = 3});
  double prev = 0.0;
  for (std::uint64_t bytes = 1'000'000'000ull; bytes <= 64'000'000'000ull;
       bytes *= 4) {
    w.ops.bytes_read = bytes;
    const auto mp = model::profile_memory(cpu, w, 60'000);
    const auto ev = model::evaluate_at_turbo(cpu, w, mp);
    EXPECT_GE(ev.seconds, prev * 0.999);
    prev = ev.seconds;
  }
}

TEST(ModelProperty, EfficiencyBoundsRespected) {
  // Achieved Gflop/s can never exceed the (issue-derated) peak.
  for (const auto& cpu : arch::all_machines()) {
    kernels::WorkloadMeasurement w;
    w.name = "peak-check";
    w.ops.fp64 = 10'000'000'000'000ull;
    w.ops.bytes_read = 1'000'000ull;  // nearly free memory
    w.working_set_bytes = 1 << 20;
    w.access = memsim::AccessPatternSpec::single(memsim::BlockedPattern{
        .matrix_bytes = 1 << 20, .tile_bytes = 1 << 18, .tile_reuse = 64});
    w.traits.vec_eff = 1.0;
    const auto mp = model::profile_memory(cpu, w, 50'000);
    const auto ev = model::evaluate(cpu, cpu.base_ghz, w, mp);
    EXPECT_LE(ev.gflops,
              cpu.peak_gflops(arch::Precision::fp64, cpu.base_ghz) * 1.001);
  }
}

// ---------------------------------------------------------------------
// Kernel count properties across scales: measured host op counts grow
// superlinearly-consistently with the kernel's complexity model, i.e.
// paper-extrapolated counts stay roughly scale-invariant.

class ScaleInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(ScaleInvariance, PaperScaledCountsStableAcrossRunScale) {
  const auto k = kernels::make(GetParam());
  const auto small = k->run({.threads = 0, .scale = 0.15});
  const auto large = k->run({.threads = 0, .scale = 0.5});
  const double f_small = static_cast<double>(small.ops.fp_total());
  const double f_large = static_cast<double>(large.ops.fp_total());
  ASSERT_GT(f_small, 0.0);
  // After extrapolation to paper scale both runs estimate the same
  // quantity; discretization allows some slack.
  EXPECT_LT(std::abs(f_large / f_small - 1.0), 0.6);
}

INSTANTIATE_TEST_SUITE_P(Kernels, ScaleInvariance,
                         ::testing::Values("HPL", "NekB", "BABL2", "QCD"));

}  // namespace
}  // namespace fpr
