// Tests for the incremental design-space machinery: dominance and the
// non-dominated filter, the ParetoEngine's archive/budget/determinism
// invariants, its speed against an ExploreEngine per variant,
// VariantEvaluator-vs-ExploreEngine equality, the batch scorer's replay,
// sibling-fill and memo counts, the geomean_ratio guard, and the
// pareto-results JSON round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/machines.hpp"
#include "arch/variant.hpp"
#include "common/timer.hpp"
#include "io/explore_json.hpp"
#include "io/pareto_json.hpp"
#include "study/explore.hpp"
#include "study/pareto.hpp"
#include "study/variant_eval.hpp"

namespace fpr::study {
namespace {

/// Small deterministic search: two kernels with opposite resource
/// appetites, shallow composition, few explorer walks.
ParetoConfig small_config() {
  ParetoConfig cfg;
  cfg.base = "KNL";
  cfg.kernels = {"HPL", "BABL2"};
  cfg.scale = 0.15;
  cfg.threads = 1;
  cfg.trace_refs = 60'000;
  cfg.rounds = 2;
  cfg.explorers = 8;
  cfg.max_depth = 3;
  return cfg;
}

ParetoResults run_small(unsigned jobs = 1) {
  ParetoConfig cfg = small_config();
  cfg.jobs = jobs;
  return ParetoEngine(cfg).run();
}

TEST(Dominance, SemanticsAreStrict) {
  EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 1.0}));
  EXPECT_TRUE(dominates({1.0, 0.5}, {2.0, 1.0}));
  EXPECT_FALSE(dominates({1.0, 1.0}, {1.0, 1.0}));  // ties dominate nothing
  EXPECT_FALSE(dominates({2.0, 1.0}, {1.0, 1.0}));
  EXPECT_FALSE(dominates({0.5, 2.0}, {2.0, 0.5}));  // incomparable
}

TEST(Dominance, NonDominatedSetInvariantToVisitOrder) {
  const std::vector<std::vector<double>> pts = {
      {1.0, 4.0}, {2.0, 3.0}, {3.0, 3.5},  // dominated by {2,3}
      {4.0, 1.0}, {2.0, 3.0},              // duplicate of a frontier point
      {5.0, 5.0},                          // dominated by everything
  };
  // The kept *set of points* must be the same for every permutation.
  auto kept_points = [&](const std::vector<std::size_t>& order) {
    std::vector<std::vector<double>> permuted;
    for (const std::size_t i : order) permuted.push_back(pts[i]);
    std::vector<std::vector<double>> kept;
    for (const std::size_t i : non_dominated(permuted)) {
      kept.push_back(permuted[i]);
    }
    std::sort(kept.begin(), kept.end());
    return kept;
  };
  std::vector<std::size_t> order = {0, 1, 2, 3, 4, 5};
  const auto reference = kept_points(order);
  EXPECT_EQ(reference.size(), 4u);  // {1,4}, {2,3} x2, {4,1}
  while (std::next_permutation(order.begin(), order.end())) {
    ASSERT_EQ(kept_points(order), reference);
  }
}

TEST(GeomeanRatio, GuardsAgainstZeroAndNonFinite) {
  EXPECT_DOUBLE_EQ(geomean_ratio({1.0, 1.0, 1.0}), 1.0);
  EXPECT_NEAR(geomean_ratio({2.0, 0.5}), 1.0, 1e-12);
  // std::log(0) == -inf would silently zero the whole geomean; the model
  // must refuse instead.
  EXPECT_THROW((void)geomean_ratio({1.0, 0.0, 2.0}), std::domain_error);
  EXPECT_THROW((void)geomean_ratio({-1.0}), std::domain_error);
  EXPECT_THROW(
      (void)geomean_ratio({std::numeric_limits<double>::quiet_NaN()}),
      std::domain_error);
  EXPECT_THROW((void)geomean_ratio({std::numeric_limits<double>::infinity()}),
               std::domain_error);
  try {
    (void)geomean_ratio({1.0, 0.0});
    FAIL() << "expected std::domain_error";
  } catch (const std::domain_error& e) {
    EXPECT_NE(std::string(e.what()).find("ratio #1"), std::string::npos);
  }
}

TEST(ParetoEngine, ArchiveNeverContainsADominatedPoint) {
  const auto r = run_small();
  ASSERT_GE(r.frontier.size(), 2u);
  for (std::size_t i = 0; i < r.frontier.size(); ++i) {
    for (std::size_t j = 0; j < r.frontier.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          dominates(r.frontier[i].objectives, r.frontier[j].objectives))
          << r.frontier[i].name() << " dominates " << r.frontier[j].name();
    }
  }
}

TEST(ParetoEngine, FrontierRespectsTheBudgetBox) {
  const auto r = run_small();
  for (const auto& p : r.frontier) {
    EXPECT_TRUE(arch::within_budget(p.budget, r.budget)) << p.name();
    // Recorded budget must match a fresh computation from the spec.
    const auto v = arch::derive_variant(arch::knl(), p.spec());
    const auto budget = arch::variant_budget(v.cpu, arch::knl());
    EXPECT_DOUBLE_EQ(p.budget.area_ratio, budget.area_ratio) << p.name();
    EXPECT_DOUBLE_EQ(p.budget.tdp_ratio, budget.tdp_ratio) << p.name();
  }
}

TEST(ParetoEngine, ByteIdenticalAcrossJobCountsAndRuns) {
  const std::string serial = io::dump(io::to_json(run_small(1)));
  EXPECT_EQ(serial, io::dump(io::to_json(run_small(1))));  // rerun
  EXPECT_EQ(serial, io::dump(io::to_json(run_small(2))));
  EXPECT_EQ(serial, io::dump(io::to_json(run_small(8))));
}

TEST(ParetoEngine, StatsAccountForTheCandidateStream) {
  ParetoEngine engine(small_config());
  const auto r = engine.run();
  const auto& st = engine.stats();
  EXPECT_EQ(st.generated,
            st.deduped + st.invalid + st.over_budget + st.evaluated);
  EXPECT_GT(st.deduped, 0u);  // composed specs collide canonically
  EXPECT_GT(st.over_budget, 0u);
  EXPECT_GE(st.evaluated, r.frontier.size());
  EXPECT_EQ(st.evaluator.evaluations, st.evaluated);
  EXPECT_EQ(st.measurement.kernel_runs, 2u);  // measured exactly once
  EXPECT_GT(st.evaluator.memo_hits, 0u);
}

TEST(ParetoEngine, StatsIdenticalAcrossJobCounts) {
  // Scoring replays fan out over the jobs workers, but every counter
  // must read as the serial run's: one replay per new trace, memo hits
  // and misses in candidate order.
  const auto stats_at = [](unsigned jobs) {
    ParetoConfig cfg = small_config();
    cfg.jobs = jobs;
    ParetoEngine engine(cfg);
    (void)engine.run();
    return engine.stats();
  };
  const ParetoStats serial = stats_at(1);
  // cores moves bring new geometries, and their passes fill the
  // mcdram-cap compositions.
  EXPECT_GT(serial.evaluator.replays, 0u);
  EXPECT_GT(serial.evaluator.sibling_fills, 0u);
  EXPECT_GT(serial.evaluator.memo_misses, 0u);
  for (const unsigned jobs : {2u, 8u}) {
    const ParetoStats st = stats_at(jobs);
    EXPECT_EQ(st.evaluator.memo_hits, serial.evaluator.memo_hits) << jobs;
    EXPECT_EQ(st.evaluator.memo_misses, serial.evaluator.memo_misses) << jobs;
    EXPECT_EQ(st.evaluator.evaluations, serial.evaluator.evaluations) << jobs;
    EXPECT_EQ(st.evaluator.replays, serial.evaluator.replays) << jobs;
    EXPECT_EQ(st.evaluator.sibling_fills, serial.evaluator.sibling_fills)
        << jobs;
  }
}

TEST(SpeedGate, ParetoAtLeastTenfoldExplorePerVariant) {
  // The incremental evaluator's reason to exist: one measurement pass
  // prices every candidate, where an ExploreEngine per variant re-runs
  // every kernel for each one. Candidates/s of one search against that
  // naive rate over the first six built-in KNL variants.
  ParetoConfig cfg;
  cfg.base = "KNL";
  cfg.kernels = {"AMG", "HPL", "XSBn", "BABL2"};
  cfg.scale = 0.15;
  cfg.threads = 1;
  cfg.trace_refs = 100'000;
  cfg.rounds = 2;
  std::vector<std::string> specs = arch::builtin_variant_specs(arch::knl());
  ASSERT_GE(specs.size(), 6u);
  specs.resize(6);
  const WallTimer naive;
  for (const auto& spec : specs) {
    ExploreConfig ecfg;
    static_cast<MeasureConfig&>(ecfg) = cfg;
    ecfg.base = cfg.base;
    ecfg.variants = {spec};
    (void)ExploreEngine(ecfg).run();
  }
  const double naive_rate = static_cast<double>(specs.size()) / naive.seconds();
  const WallTimer search;
  ParetoEngine engine(cfg);
  (void)engine.run();
  const double search_rate =
      static_cast<double>(engine.stats().evaluated) / search.seconds();
  const double ratio = search_rate / naive_rate;
  std::printf("pareto vs explore-per-variant: %.1f vs %.1f candidates/s, "
              "%.1fx (gate >= 10x)\n",
              search_rate, naive_rate, ratio);
  EXPECT_GE(ratio, 10.0);
}

TEST(ParetoEngine, RejectsDegenerateConfigs) {
  {
    ParetoConfig cfg = small_config();
    cfg.base = "EPYC";
    EXPECT_THROW((void)ParetoEngine(cfg).run(), std::invalid_argument);
  }
  {
    ParetoConfig cfg = small_config();
    cfg.objectives = {};
    EXPECT_THROW((void)ParetoEngine(cfg).run(), std::invalid_argument);
  }
  {
    ParetoConfig cfg = small_config();
    cfg.objectives = {Objective::time, Objective::time};
    EXPECT_THROW((void)ParetoEngine(cfg).run(), std::invalid_argument);
  }
  {
    ParetoConfig cfg = small_config();
    cfg.max_depth = 0;
    EXPECT_THROW((void)ParetoEngine(cfg).run(), std::invalid_argument);
  }
}

TEST(VariantEvaluator, MatchesTheExploreEngineOnTheGoldenConfig) {
  // The rewired ExploreEngine must price every variant exactly as a
  // stand-alone evaluator does — same measurements, same arithmetic.
  const ExploreConfig gc = golden_explore_config();
  const auto explored = ExploreEngine(gc).run();

  const arch::CpuSpec base = arch::find_machine(gc.base).value();
  const VariantEvaluator evaluator(base, gc);

  auto dump = [](const VariantScore& s) {
    return io::dump(io::to_json(s));
  };
  EXPECT_EQ(dump(evaluator.evaluate({"", base})), dump(explored.baseline));
  for (const auto& v : explored.variants) {
    const auto score = evaluator.evaluate(
        arch::derive_variant(base, v.variant.spec));
    EXPECT_EQ(dump(score), dump(v)) << v.name();
  }
}

TEST(VariantEvaluator, MemoizesProfilesByMemoryModel) {
  arch::CpuSpec base = arch::knl();
  VariantEvaluator::Config ec;
  ec.kernels = {"BABL2"};
  ec.scale = 0.15;
  ec.threads = 1;
  ec.trace_refs = 60'000;
  const VariantEvaluator evaluator(base, ec);
  // TDP respins keep the memory model: both serve from the primed base
  // profiles. A bandwidth change is a new digest, computed exactly once.
  (void)evaluator.evaluate(arch::derive_variant(base, "tdp=0.85"));
  (void)evaluator.evaluate(arch::derive_variant(base, "tdp=0.9"));
  EXPECT_EQ(evaluator.stats().memo_misses, 0u);
  (void)evaluator.evaluate(arch::derive_variant(base, "mcdram-bw=1.5"));
  (void)evaluator.evaluate(arch::derive_variant(base, "mcdram-bw=1.5"));
  const auto st = evaluator.stats();
  EXPECT_EQ(st.memo_misses, 1u);
  EXPECT_EQ(st.memo_hits, 3u);
  EXPECT_EQ(st.evaluations, 4u);
}

TEST(VariantEvaluator, BatchReplaysEachGeometryOnce) {
  const arch::CpuSpec base = arch::knl();
  VariantEvaluator::Config ec;
  ec.kernels = {"HPL", "BABL2"};
  ec.scale = 0.15;
  ec.threads = 1;
  ec.trace_refs = 60'000;
  ec.jobs = 4;
  // One new geometry (cores=0.9) under two new memory models (with and
  // without the DRAM bump); the TDP respins reuse a known model.
  std::vector<arch::MachineVariant> batch;
  for (const char* spec : {"cores=0.9", "cores=0.9+tdp=0.9",
                           "cores=0.9+dram-bw=1.25", "tdp=0.85"}) {
    batch.push_back(arch::derive_variant(base, spec));
  }

  const VariantEvaluator evaluator(base, ec);
  const auto misses_before = evaluator.sim_stats().misses;
  const auto scores = evaluator.evaluate(batch);
  EXPECT_EQ(evaluator.sim_stats().misses - misses_before,
            evaluator.kernel_count());
  const auto st = evaluator.stats();
  EXPECT_EQ(st.memo_misses, 2u);
  EXPECT_EQ(st.memo_hits, 2u);
  EXPECT_EQ(st.evaluations, batch.size());

  // Each score is what a one-at-a-time evaluate() gives.
  ec.jobs = 1;
  const VariantEvaluator single(base, ec);
  ASSERT_EQ(scores.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(io::dump(io::to_json(scores[i])),
              io::dump(io::to_json(single.evaluate(batch[i]))))
        << batch[i].spec;
  }
}

TEST(VariantEvaluator, BatchFillsSuppliedSiblings) {
  const arch::CpuSpec base = arch::knl();
  VariantEvaluator::Config ec;
  ec.kernels = {"HPL", "BABL2"};
  ec.scale = 0.15;
  ec.threads = 1;
  ec.trace_refs = 60'000;
  ec.jobs = 4;
  const VariantEvaluator evaluator(base, ec);
  const std::uint64_t nk = evaluator.kernel_count();

  // cores=0.9 is a new geometry. Doubling its MCDRAM changes only the
  // last level, so the batch's passes fill that machine; the same move
  // on cores=1.25 shares no pass of the batch and is dropped.
  const auto scored = arch::derive_variant(base, "cores=0.9");
  const auto sibling = arch::derive_variant(base, "cores=0.9+mcdram-cap=2");
  const auto stranger = arch::derive_variant(base, "cores=1.25+mcdram-cap=2");
  ASSERT_TRUE(evaluator.is_sibling(scored.cpu, sibling.cpu));
  ASSERT_FALSE(evaluator.is_sibling(scored.cpu, stranger.cpu));
  ASSERT_FALSE(evaluator.is_sibling(scored.cpu, scored.cpu));
  (void)evaluator.evaluate(std::vector{scored}, {sibling.cpu, stranger.cpu});
  const auto filled = evaluator.stats();
  EXPECT_EQ(filled.replays, nk);  // one pass per kernel
  EXPECT_EQ(filled.sibling_fills, nk);
  EXPECT_EQ(filled.memo_misses, 1u);  // the sibling is not memoized

  // Scoring the sibling later replays nothing; the stranger replays.
  const auto sim_before = evaluator.sim_stats();
  const VariantScore score = evaluator.evaluate(sibling);
  EXPECT_EQ(evaluator.stats().replays, filled.replays);
  EXPECT_EQ(evaluator.sim_stats().misses, sim_before.misses);
  EXPECT_EQ(evaluator.sim_stats().hits, sim_before.hits + nk);
  EXPECT_EQ(evaluator.stats().memo_misses, 2u);
  (void)evaluator.evaluate(stranger);
  EXPECT_EQ(evaluator.stats().replays, filled.replays + nk);

  // The filled sibling scores as a one-at-a-time evaluate() does.
  ec.jobs = 1;
  const VariantEvaluator single(base, ec);
  EXPECT_EQ(io::dump(io::to_json(score)),
            io::dump(io::to_json(single.evaluate(sibling))));
}

TEST(ParetoJson, RoundTripIsLossless) {
  const auto r = run_small();
  const auto doc = io::to_json(r);
  const std::string text = io::dump(doc);
  const auto back = io::pareto_from_json(io::parse(text));
  EXPECT_EQ(io::dump(io::to_json(back)), text);
  ASSERT_EQ(back.frontier.size(), r.frontier.size());
  EXPECT_EQ(back.objectives, r.objectives);
}

TEST(ParetoJson, RejectsForeignAndInconsistentDocuments) {
  EXPECT_THROW(io::pareto_from_json(io::parse("{\"format\":\"x\"}")),
               io::JsonError);
  const auto results = run_small();
  auto doc = io::to_json(results);
  auto stale = doc;
  stale.set("version", io::kParetoVersion + 1);
  EXPECT_THROW(io::pareto_from_json(stale), io::JsonError);
  // Only an integer from 1 to the supported version is a version.
  for (const io::Json& version :
       {io::Json(0), io::Json(-5), io::Json(1.5), io::Json(1e300),
        io::Json("NaN"), io::Json("Infinity")}) {
    stale.set("version", version);
    EXPECT_THROW(io::pareto_from_json(stale), io::JsonError)
        << io::dump(version);
  }
  stale.set("version", 1);
  EXPECT_NO_THROW(io::pareto_from_json(stale));
  // A repeated frontier point is named.
  auto twice = results;
  ASSERT_FALSE(twice.frontier.empty());
  twice.frontier.push_back(twice.frontier[0]);
  try {
    (void)io::pareto_from_json(io::to_json(twice));
    ADD_FAILURE() << "a repeated frontier point loaded";
  } catch (const io::JsonError& e) {
    EXPECT_EQ(std::string(e.what()),
              "frontier point '" + twice.frontier[0].name() +
                  "' appears more than once");
  }
  auto bad_objective = doc;
  io::Json unknown = io::Json::array();
  unknown.push(io::Json("throughput"));
  bad_objective.set("objectives", std::move(unknown));
  EXPECT_THROW(io::pareto_from_json(bad_objective), io::JsonError);
  // Valid names, wrong arity: frontier points carry three values.
  auto short_vector = doc;
  io::Json only_time = io::Json::array();
  only_time.push(io::Json("time"));
  short_vector.set("objectives", std::move(only_time));
  EXPECT_THROW(io::pareto_from_json(short_vector), io::JsonError);
}

}  // namespace
}  // namespace fpr::study
