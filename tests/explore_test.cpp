// Tests for the what-if machine exploration: the ExploreEngine's
// determinism and scoring, and the explore-results JSON round trip.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "arch/machines.hpp"
#include "arch/variant.hpp"
#include "io/explore_json.hpp"
#include "study/explore.hpp"

namespace fpr::study {
namespace {

/// Small deterministic sweep: two kernels with opposite resource
/// appetites (dense FP64 vs pure stream) over hand-picked variants.
ExploreConfig small_config() {
  ExploreConfig cfg;
  cfg.base = "KNL";
  cfg.variants = {"drop-fp64-vec", "mcdram-bw=1.5", "tdp=0.85"};
  cfg.kernels = {"HPL", "BABL2"};
  cfg.scale = 0.15;
  cfg.threads = 1;
  cfg.trace_refs = 60'000;
  return cfg;
}

const ExploreResults& small_results() {
  static const ExploreResults r = ExploreEngine(small_config()).run();
  return r;
}

TEST(ExploreEngine, BaselineScoresAreUnity) {
  const auto& r = small_results();
  EXPECT_EQ(r.base, "KNL");
  EXPECT_EQ(r.baseline.variant.spec, "");
  EXPECT_EQ(r.baseline.name(), "KNL");
  EXPECT_DOUBLE_EQ(r.baseline.geomean_time_ratio, 1.0);
  EXPECT_DOUBLE_EQ(r.baseline.geomean_energy_ratio, 1.0);
  for (const auto& k : r.baseline.kernels) {
    EXPECT_DOUBLE_EQ(k.time_ratio, 1.0) << k.abbrev;
    EXPECT_DOUBLE_EQ(k.energy_ratio, 1.0) << k.abbrev;
  }
}

TEST(ExploreEngine, VariantsCarryDerivedMachines) {
  const auto& r = small_results();
  ASSERT_EQ(r.variants.size(), 3u);
  EXPECT_EQ(r.variants[0].name(), "KNL+drop-fp64-vec");
  EXPECT_EQ(r.variants[1].name(), "KNL+mcdram-bw=1.5");
  EXPECT_EQ(r.variants[2].name(), "KNL+tdp=0.85");
  for (const auto& v : r.variants) {
    ASSERT_EQ(v.kernels.size(), r.baseline.kernels.size());
    for (std::size_t i = 0; i < v.kernels.size(); ++i) {
      EXPECT_EQ(v.kernels[i].abbrev, r.baseline.kernels[i].abbrev);
    }
  }
  EXPECT_NE(r.find("KNL+tdp=0.85"), nullptr);
  EXPECT_EQ(r.find("KNL"), &r.baseline);
  EXPECT_EQ(r.find("KNL+nope"), nullptr);
}

TEST(ExploreEngine, ScoringTracksTheResourceStory) {
  // The Sec. VII sanity checks: removing vector FP64 must hurt HPL but
  // not the stream; more MCDRAM bandwidth must help the stream; a TDP
  // cut changes energy, never time.
  const auto& r = small_results();
  const auto* no_fp64 = r.find("KNL+drop-fp64-vec");
  const auto* more_bw = r.find("KNL+mcdram-bw=1.5");
  const auto* less_tdp = r.find("KNL+tdp=0.85");
  ASSERT_TRUE(no_fp64 && more_bw && less_tdp);

  auto kernel = [](const VariantScore& v, const std::string& abbrev) {
    for (const auto& k : v.kernels) {
      if (k.abbrev == abbrev) return k;
    }
    throw std::logic_error("no kernel " + abbrev);
  };
  EXPECT_GT(kernel(*no_fp64, "HPL").time_ratio, 1.5);
  EXPECT_NEAR(kernel(*no_fp64, "BABL2").time_ratio, 1.0, 0.05);
  EXPECT_LT(kernel(*more_bw, "BABL2").time_ratio, 0.9);
  EXPECT_GT(no_fp64->geomean_time_ratio, 1.0);
  EXPECT_LT(more_bw->geomean_time_ratio, 1.0);
  EXPECT_DOUBLE_EQ(less_tdp->geomean_time_ratio, 1.0);
  EXPECT_NEAR(less_tdp->geomean_energy_ratio, 0.85, 1e-9);
  // FP64 %-of-peak: the same achieved flops against a far smaller peak.
  EXPECT_GT(no_fp64->mean_fp64_pct_peak, r.baseline.mean_fp64_pct_peak);
}

TEST(ExploreEngine, ByteIdenticalAcrossJobCounts) {
  auto run_dump = [](unsigned jobs, unsigned kernel_jobs) {
    ExploreConfig cfg = small_config();
    cfg.jobs = jobs;
    cfg.kernel_jobs = kernel_jobs;
    return io::dump(io::to_json(ExploreEngine(cfg).run()));
  };
  const std::string serial = run_dump(1, 1);
  EXPECT_EQ(serial, run_dump(4, 1));
  EXPECT_EQ(serial, run_dump(1, 2));
  EXPECT_EQ(serial, run_dump(8, 2));
}

TEST(ExploreEngine, SharesHierarchyReplaysAcrossVariants) {
  // Bandwidth/TDP/FPU variants leave the cache geometry untouched, so
  // the engine-wide SimCache must serve their stages from the base
  // machine's simulations: with 4 grid machines but only one geometry,
  // the sweep simulates no more than the baseline alone would.
  ExploreEngine engine(small_config());
  (void)engine.run();
  const auto& st = engine.stats();
  EXPECT_EQ(st.kernel_runs, 2u);
  EXPECT_EQ(st.machine_evals, 8u);  // 2 kernels x (1 base + 3 variants)
  EXPECT_GT(st.sim_hits, 0u);
  EXPECT_LE(st.sim_misses, 2u);  // one distinct geometry per kernel
}

TEST(ExploreEngine, RejectsBadConfigs) {
  {
    ExploreConfig cfg = small_config();
    cfg.base = "EPYC";
    EXPECT_THROW((void)ExploreEngine(cfg).run(), std::invalid_argument);
  }
  {
    ExploreConfig cfg = small_config();
    cfg.variants = {"dram-bw=1.5", "dram-bw=1.5"};
    EXPECT_THROW((void)ExploreEngine(cfg).run(), std::invalid_argument);
  }
  {
    ExploreConfig cfg = small_config();
    cfg.variants = {"mcdram-bw=0.01"};  // DDR would outrun MCDRAM
    EXPECT_THROW((void)ExploreEngine(cfg).run(), std::invalid_argument);
  }
}

TEST(ExploreEngine, RejectsCanonicallyEquivalentVariants) {
  // Dedup is by resolved machine, not by spelling: order-equivalent
  // compositions and factor respellings are duplicates too, and the
  // error names both colliding spellings.
  {
    ExploreConfig cfg = small_config();
    cfg.variants = {"cores=2+tdp=0.9", "tdp=0.9+cores=2"};
    try {
      (void)ExploreEngine(cfg).run();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("tdp=0.9+cores=2"), std::string::npos) << what;
      EXPECT_NE(what.find("cores=2+tdp=0.9"), std::string::npos) << what;
    }
  }
  {
    ExploreConfig cfg = small_config();
    cfg.variants = {"dram-bw=1.5", "dram-bw=1.50"};
    EXPECT_THROW((void)ExploreEngine(cfg).run(), std::invalid_argument);
  }
  {
    // A spec that merely re-derives the base machine collides with it.
    ExploreConfig cfg = small_config();
    cfg.variants = {"dram-bw=1.0"};
    EXPECT_THROW((void)ExploreEngine(cfg).run(), std::invalid_argument);
  }
}

TEST(ExploreEngine, DefaultGridIsTheBuiltinOne) {
  ExploreConfig cfg = small_config();
  cfg.variants.clear();
  cfg.kernels = {"BABL2"};
  const auto r = ExploreEngine(cfg).run();
  const auto specs = arch::builtin_variant_specs(arch::knl());
  ASSERT_EQ(r.variants.size(), specs.size());
  EXPECT_GE(r.variants.size(), 6u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(r.variants[i].variant.spec, specs[i]);
  }
}

TEST(ExploreJson, RoundTripIsLossless) {
  const auto& r = small_results();
  const auto doc = io::to_json(r);
  const std::string text = io::dump(doc);
  const auto back = io::explore_from_json(io::parse(text));
  // Fixed point: re-serializing the parsed results reproduces the text
  // byte for byte (doubles round-trip exactly, CpuSpecs re-derive).
  EXPECT_EQ(io::dump(io::to_json(back)), text);
  // The rehydrated variants are full machines again.
  ASSERT_EQ(back.variants.size(), r.variants.size());
  EXPECT_DOUBLE_EQ(back.variants[1].variant.cpu.mcdram_bw_gbs,
                   arch::knl().mcdram_bw_gbs * 1.5);
}

TEST(ExploreJson, RejectsForeignAndInconsistentDocuments) {
  EXPECT_THROW(io::explore_from_json(io::parse("{\"format\":\"x\"}")),
               io::JsonError);
  auto doc = io::to_json(small_results());
  doc.set("version", io::kExploreVersion + 1);
  EXPECT_THROW(io::explore_from_json(doc), io::JsonError);
  // Only an integer from 1 to the supported version is a version.
  for (const io::Json& version :
       {io::Json(0), io::Json(-5), io::Json(1.5), io::Json(1e300),
        io::Json("NaN"), io::Json("Infinity")}) {
    doc.set("version", version);
    EXPECT_THROW(io::explore_from_json(doc), io::JsonError)
        << io::dump(version);
  }
  doc.set("version", 1);
  EXPECT_NO_THROW(io::explore_from_json(doc));

  // A spec that no longer derives is a schema error like any other.
  auto bad_spec = small_results();
  bad_spec.variants[0].variant.spec = "no-such-transform";
  EXPECT_THROW(io::explore_from_json(io::to_json(bad_spec)), io::JsonError);

  // Identities are unique: a repeated variant (the baseline counts) or a
  // variant's repeated kernel is named.
  const auto error_of = [](const ExploreResults& r) -> std::string {
    try {
      (void)io::explore_from_json(io::to_json(r));
    } catch (const io::JsonError& e) {
      return e.what();
    }
    return "";
  };
  auto variant_twice = small_results();
  variant_twice.variants.push_back(variant_twice.variants[0]);
  EXPECT_EQ(error_of(variant_twice),
            "variant 'KNL+drop-fp64-vec' appears more than once");
  auto base_twice = small_results();
  base_twice.variants.push_back(base_twice.baseline);
  EXPECT_EQ(error_of(base_twice), "variant 'KNL' appears more than once");
  auto kernel_twice = small_results();
  auto& kernels = kernel_twice.variants[1].kernels;
  kernels.push_back(kernels[0]);
  EXPECT_EQ(error_of(kernel_twice),
            "variant 'KNL+mcdram-bw=1.5': kernel 'HPL' appears more than once");
}

}  // namespace
}  // namespace fpr::study
