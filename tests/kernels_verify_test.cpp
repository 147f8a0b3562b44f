// Kernel verification depth tests: each kernel's numerical result is
// checked against an independent oracle where one exists, beyond the
// kernel's built-in self-verification.
#include <gtest/gtest.h>

#include <cmath>

#include "kernels/kernel.hpp"

namespace fpr::kernels {
namespace {

RunConfig quick(double scale = 0.3) {
  RunConfig cfg;
  cfg.scale = scale;
  return cfg;
}

TEST(Verify, HplResidualGatesThrow) {
  // run() throws on verification failure; a clean run must not throw.
  EXPECT_NO_THROW(make("HPL")->run(quick()));
}

TEST(Verify, BabelStreamClosedForm) {
  const auto m = make("BABL2")->run(quick());
  EXPECT_TRUE(std::isfinite(m.checksum));
  EXPECT_NE(m.checksum, 0.0);
}

TEST(Verify, MiniTriExactCount) {
  // MiniTri verifies the triangle count against the closed form inside
  // run(); additionally its checksum (the count) must be stable across
  // thread configurations.
  const auto a = make("MTri")->run({.threads = 0, .scale = 0.3});
  const auto b = make("MTri")->run({.threads = 2, .scale = 0.3});
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_GT(a.checksum, 0.0);
}

TEST(Verify, FftParsevalAndRoundTrip) {
  EXPECT_NO_THROW(make("FFT")->run(quick()));
}

TEST(Verify, NtchemEnergyNegative) {
  const auto m = make("NTCh")->run(quick());
  EXPECT_LT(m.checksum, 0.0);  // MP2 correlation energy
}

TEST(Verify, ModylasFmmVsDirect) {
  const auto m = make("MDYL")->run(quick());
  EXPECT_LT(m.checksum, 0.35);  // max relative force error vs direct sum
}

TEST(Verify, NgsaAlignsPlantedReads) {
  const auto m = make("NGSA")->run(quick());
  EXPECT_GT(m.checksum, 0.0);  // number of correctly aligned reads
}

TEST(Verify, MvmcDeterminantConsistency) {
  EXPECT_NO_THROW(make("mVMC")->run(quick()));
}

TEST(Verify, SolversReduceResiduals) {
  // CG-family kernels carry residual ratios as checksums; all must have
  // converged substantially.
  for (const char* a : {"HPCG", "QCD"}) {
    const auto m = make(a)->run(quick());
    EXPECT_LT(m.checksum, 0.9) << a;
    EXPECT_GE(m.checksum, 0.0) << a;
  }
}

TEST(Verify, ChecksumDeterministicPerSeed) {
  for (const char* a : {"CoMD", "XSBn", "NICM"}) {
    auto k = make(a);
    const auto m1 = k->run(quick(0.25));
    const auto m2 = k->run(quick(0.25));
    EXPECT_EQ(m1.checksum, m2.checksum) << a;
  }
}

TEST(Verify, DifferentSeedDifferentChecksum) {
  auto k = make("XSBn");
  RunConfig a = quick(0.25);
  RunConfig b = quick(0.25);
  b.seed = 1234;
  EXPECT_NE(k->run(a).checksum, k->run(b).checksum);
}

TEST(Verify, WorkingSetsAtPaperScale) {
  // Spot-check the paper-scale working sets against the documented
  // inputs: HPL N=64512 is a ~33 GB matrix; BABL14 is 42 GiB of vectors;
  // XSBench's large H-M grid is ~5.6 GB.
  const auto hpl = make("HPL")->run(quick(0.2));
  EXPECT_NEAR(static_cast<double>(hpl.working_set_bytes), 64512.0 * 64512.0 * 8,
              1e9);
  const auto babl = make("BABL14")->run(quick(0.2));
  EXPECT_NEAR(static_cast<double>(babl.working_set_bytes),
              3.0 * 14 * 1024.0 * 1024 * 1024, 1e9);
  const auto xs = make("XSBn")->run(quick(0.2));
  EXPECT_NEAR(static_cast<double>(xs.working_set_bytes), 5.6e9, 1e8);
}

TEST(Verify, PaperScaleOpsInPaperBallpark) {
  // The extrapolated FP64 counts should be the same order of magnitude
  // as Table IV. HPL: 184192 Gop(D); tolerance one order.
  const auto hpl = make("HPL")->run(quick(0.25));
  const double gop = static_cast<double>(hpl.ops.fp64) / 1e9;
  EXPECT_GT(gop, 184191.0 * 0.5);
  EXPECT_LT(gop, 184191.0 * 2.0);
}

TEST(Verify, AssayExcludesSetup) {
  // host_seconds measures the assayed kernel only; it must be positive
  // and not absurdly large for the reduced inputs.
  for (const char* a : {"AMG", "MiFE", "SW4L"}) {
    const auto m = make(a)->run(quick(0.2));
    EXPECT_GT(m.host_seconds, 0.0) << a;
    EXPECT_LT(m.host_seconds, 60.0) << a;
  }
}

}  // namespace
}  // namespace fpr::kernels
