// Per-kernel behavioural tests: registry integrity, determinism, op-mix
// sanity, scaling behaviour. (Verification correctness is exercised in
// kernels_verify_test.cpp, which runs every kernel's self-check.)
#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "kernels/kernel.hpp"

namespace fpr::kernels {
namespace {

TEST(Registry, HasAllPaperApps) {
  const auto abbrevs = all_abbrevs();
  // 12 ECP + 8 RIKEN + HPL + HPCG + 2 BabelStream configs.
  EXPECT_EQ(abbrevs.size(), 24u);
  const std::set<std::string> s(abbrevs.begin(), abbrevs.end());
  for (const char* a :
       {"AMG", "CNDL", "CoMD", "LAGO", "MxIO", "MAMR", "MiFE", "MTri",
        "NekB", "SW4L", "FFT", "XSBn", "FFB", "FFVC", "MDYL", "mVMC",
        "NGSA", "NICM", "NTCh", "QCD", "HPL", "HPCG", "BABL2", "BABL14"}) {
    EXPECT_TRUE(s.count(a)) << a;
  }
}

TEST(Registry, AbbrevsUnique) {
  const auto abbrevs = all_abbrevs();
  const std::set<std::string> s(abbrevs.begin(), abbrevs.end());
  EXPECT_EQ(s.size(), abbrevs.size());
}

TEST(Registry, MakeByNameAndUnknownThrows) {
  EXPECT_EQ(make("AMG")->info().abbrev, "AMG");
  EXPECT_EQ(make("HPL")->info().abbrev, "HPL");
  EXPECT_THROW(make("NOPE"), std::invalid_argument);
}

TEST(Registry, SuiteSizesMatchPaper) {
  int ecp = 0, riken = 0, ref = 0;
  for (const auto& k : make_all()) {
    switch (k->info().suite) {
      case Suite::ecp: ++ecp; break;
      case Suite::riken: ++riken; break;
      case Suite::reference: ++ref; break;
    }
  }
  EXPECT_EQ(ecp, 12);   // Sec. II-B1
  EXPECT_EQ(riken, 8);  // Sec. II-B2
  EXPECT_EQ(ref, 4);    // HPL, HPCG, BABL2, BABL14
}

TEST(Registry, InfoFieldsPopulated) {
  for (const auto& k : make_all()) {
    const auto& i = k->info();
    EXPECT_FALSE(i.name.empty());
    EXPECT_FALSE(i.abbrev.empty());
    EXPECT_FALSE(i.language.empty());
    EXPECT_FALSE(i.paper_input.empty());
  }
}

TEST(Registry, CatalogueIsPinned) {
  // Every field of every catalogue row in paper order, as `fpr list
  // --csv` prints them: abbrev, name, suite, domain, compute pattern,
  // language, paper input. make_all(), make() and all_abbrevs() must
  // each agree with it.
  struct Pinned {
    const char* abbrev;
    const char* name;
    const char* suite;
    const char* domain;
    const char* pattern;
    const char* language;
    const char* paper_input;
  };
  const Pinned rows[] = {
      {"AMG", "Algebraic multi-grid", "ECP", "Physics and Bioscience",
       "Stencil", "C", "problem 1: 27-point stencil, 3-D linear system"},
      {"CNDL", "CANDLE", "ECP", "Bioscience", "Dense matrix", "Python",
       "P1B1 autoencoder on gene expression data"},
      {"CoMD", "Co-designed Molecular Dynamics", "ECP",
       "Material Science/Engineering", "N-body", "C",
       "LJ potential, 256,000 atoms, strong scaling"},
      {"LAGO", "Laghos", "ECP", "Physics", "Irregular", "C++",
       "2-D Sedov blast wave, default settings"},
      {"MxIO", "MACSio", "ECP", "Reference", "I/O", "C",
       "433.8 MB written to disk"},
      {"MAMR", "MiniAMR", "ECP", "Geoscience/Earthscience", "Stencil", "C",
       "sphere moving diagonally through a cubic medium"},
      {"MiFE", "MiniFE", "ECP", "Physics", "Irregular", "C++",
       "128x128x128 unstructured 3-D grid"},
      {"MTri", "MiniTri", "ECP", "Math/Computer Science", "Irregular", "C++",
       "BCSSTK30 triangle detection + clique bound"},
      {"NekB", "Nekbone", "ECP", "Math/Computer Science", "Sparse matrix",
       "Fortran",
       "CG Poisson, multigrid preconditioner, "
       "fixed elements/process and order"},
      {"SW4L", "SW4lite", "ECP", "Geoscience/Earthscience", "Stencil", "C",
       "pointsource: wave from a point in a half-space"},
      {"FFT", "SWFFT", "ECP", "Physics", "FFT", "C/Fortran",
       "32 reps of 3-D FFT on a 128^3 grid"},
      {"XSBn", "XSBench", "ECP", "Physics", "Irregular", "C",
       "large H-M reactor, 15e6 lookups/particle class"},
      {"FFB", "FrontFlow/blue", "RIKEN", "Engineering (Mechanics, CFD)",
       "Stencil", "Fortran", "3-D cavity flow, 50x50x50 cubes"},
      {"FFVC", "FrontFlow/violet Cartesian", "RIKEN",
       "Engineering (Mechanics, CFD)", "Stencil", "C++/Fortran",
       "3-D cavity flow, 144^3 cuboid (FVM)"},
      {"MDYL", "MODYLAS", "RIKEN", "Physics and Chemistry", "N-body", "Fortran",
       "wat222: 156,240 atoms over 16^3 cells (FMM)"},
      {"mVMC", "many-variable Variational Monte Carlo", "RIKEN", "Physics",
       "Dense matrix", "C", "quantum lattice strong-scaling test, downsized"},
      {"NGSA", "Next-Gen Sequencing Analyzer", "RIKEN", "Bioscience",
       "Irregular", "C", "pre-generated pseudo-genome (ngsa-dummy)"},
      {"NICM", "Nonhydrostatic ICosahedral Atmospheric Model", "RIKEN",
       "Geoscience/Earthscience", "Stencil", "Fortran",
       "Jablonowski baroclinic wave, gl05rl00z40, 1 day"},
      {"NTCh", "NTChem", "RIKEN", "Chemistry", "Dense matrix", "Fortran",
       "MP2 solver, H2O test case"},
      {"QCD", "Lattice QCD", "RIKEN", "Lattice QCD", "Stencil", "Fortran/C",
       "Class 2: 32^3 x 32 lattice"},
      {"HPL", "High Performance Linpack", "Reference", "Reference",
       "Dense matrix", "C", "dense Ax=b, N=64512, Intel-optimized binary"},
      {"HPCG", "High Performance Conjugate Gradients", "Reference", "Reference",
       "Sparse matrix", "C++", "360x360x360 global problem, Intel binary"},
      {"BABL2", "BabelStream", "Reference", "Reference", "Stream", "C++",
       "2 GiB vectors, cache mode"},
      {"BABL14", "BabelStream", "Reference", "Reference", "Stream", "C++",
       "14 GiB vectors, cache mode"},
  };
  const auto expect_row = [](const KernelInfo& got, const Pinned& want) {
    EXPECT_EQ(got.abbrev, want.abbrev);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(to_string(got.suite), want.suite);
    EXPECT_EQ(to_string(got.domain), want.domain);
    EXPECT_EQ(to_string(got.pattern), want.pattern);
    EXPECT_EQ(got.language, want.language);
    EXPECT_EQ(got.paper_input, want.paper_input);
  };
  const auto all = make_all();
  const auto abbrevs = all_abbrevs();
  ASSERT_EQ(all.size(), std::size(rows));
  ASSERT_EQ(abbrevs.size(), std::size(rows));
  for (std::size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE(rows[i].abbrev);
    expect_row(all[i]->info(), rows[i]);
    expect_row(make(rows[i].abbrev)->info(), rows[i]);
    EXPECT_EQ(abbrevs[i], rows[i].abbrev);
  }
}

class KernelRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelRunTest, RunsVerifiesAndReports) {
  const auto kernel = make(GetParam());
  RunConfig cfg;
  cfg.scale = 0.25;  // keep tests quick
  const auto m = kernel->run(cfg);
  EXPECT_TRUE(m.verified);
  EXPECT_GT(m.host_seconds, 0.0);
  EXPECT_GT(m.working_set_bytes, 0u);
  EXPECT_FALSE(m.access.components.empty());
  EXPECT_GT(m.ops.classified_total(), 0u);
  EXPECT_GT(m.ops.bytes_read + m.ops.bytes_written, 0u);
  EXPECT_GT(m.traits.vec_eff, 0.0);
  EXPECT_LE(m.traits.vec_eff, 1.0);
}

TEST_P(KernelRunTest, DeterministicOpsAcrossRuns) {
  const auto kernel = make(GetParam());
  RunConfig cfg;
  cfg.scale = 0.2;
  const auto a = kernel->run(cfg);
  const auto b = kernel->run(cfg);
  EXPECT_EQ(a.ops.fp64, b.ops.fp64);
  EXPECT_EQ(a.ops.fp32, b.ops.fp32);
  EXPECT_EQ(a.ops.int_ops, b.ops.int_ops);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelRunTest,
    ::testing::ValuesIn(all_abbrevs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Op-mix expectations from the paper's Fig. 1 / Table IV.
TEST(OpMix, Fp64DominantApps) {
  for (const char* a : {"NekB", "SW4L", "HPL", "CoMD"}) {
    const auto m = make(a)->run({.threads = 0, .scale = 0.2});
    EXPECT_GT(m.ops.fp64, m.ops.fp32) << a;
  }
}

TEST(OpMix, Fp32DominantApps) {
  // Fig. 1: CANDLE, FFB, FFVC lean on single precision.
  for (const char* a : {"CNDL", "FFB", "FFVC"}) {
    const auto m = make(a)->run({.threads = 0, .scale = 0.2});
    EXPECT_GT(m.ops.fp32, m.ops.fp64) << a;
  }
}

TEST(OpMix, IntegerOnlyApps) {
  // Fig. 1 / Table IV: MiniTri and NGSA perform (almost) no FP work.
  for (const char* a : {"MTri", "NGSA"}) {
    const auto m = make(a)->run({.threads = 0, .scale = 0.2});
    EXPECT_GT(m.ops.int_share(), 0.95) << a;
  }
}

TEST(OpMix, MajorityIssueManyIntOps) {
  // Paper Sec. IV-A: 16 of 22 apps issue at least 50% integer ops. Check
  // the known int-heavy ones.
  for (const char* a : {"LAGO", "MAMR", "FFVC", "QCD", "MxIO"}) {
    const auto m = make(a)->run({.threads = 0, .scale = 0.2});
    EXPECT_GT(m.ops.int_share(), 0.5) << a;
  }
}

TEST(Scaling, OpsGrowWithScale) {
  // Raw (pre-extrapolation) op counts must grow with the input scale.
  // Host time would also grow but is too noisy under parallel test load.
  for (const char* a : {"HPL", "AMG", "FFT"}) {
    const auto small = make(a)->run({.threads = 0, .scale = 0.1});
    const auto large = make(a)->run({.threads = 0, .scale = 1.0});
    const double raw_small =
        static_cast<double>(small.ops.fp_total()) / small.ops_scale_to_paper;
    const double raw_large =
        static_cast<double>(large.ops.fp_total()) / large.ops_scale_to_paper;
    EXPECT_GT(raw_large, raw_small * 2.0) << a;
  }
}

TEST(Threads, SingleThreadMatchesParallelOps) {
  // Operation counts must be independent of the parallel decomposition.
  for (const char* a : {"NekB", "BABL2", "QCD"}) {
    const auto par = make(a)->run({.threads = 0, .scale = 0.2});
    const auto ser = make(a)->run({.threads = 1, .scale = 0.2});
    EXPECT_EQ(par.ops.fp64, ser.ops.fp64) << a;
    EXPECT_EQ(par.ops.fp32, ser.ops.fp32) << a;
  }
}

TEST(PhiAdjust, LaghosAndHpcgCarryDeviations) {
  // The paper-documented per-arch op deviations must be encoded.
  const auto lago = make("LAGO")->run({.threads = 0, .scale = 0.2});
  EXPECT_NEAR(lago.traits.phi_adjust.fp64, 1.92, 0.2);
  const auto hpcg = make("HPCG")->run({.threads = 0, .scale = 0.2});
  EXPECT_GT(hpcg.traits.phi_adjust.int_ops, 50.0);
}

TEST(Macsio, CarriesIoBytes) {
  const auto m = make("MxIO")->run({.threads = 0, .scale = 0.2});
  EXPECT_NEAR(m.traits.io_write_bytes, 433.8e6, 1e6);
}

}  // namespace
}  // namespace fpr::kernels
