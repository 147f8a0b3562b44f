// Pareto search throughput bench: quantifies the tentpole claim that
// the incremental VariantEvaluator makes design-space search cheap.
//
// Naive baseline: score each candidate the way the pre-evaluator
// ExploreEngine did — a fresh engine per variant, so every candidate
// re-pays the full instrumented measurement pass. Incremental path: one
// ParetoEngine run, which measures once and prices every candidate from
// the cached profiles. The bench reports candidates/sec for both, the
// dedup and profile-memo hit rates, the scoring replay passes and the
// sibling fills they carry, and the speedup; it exits nonzero if any
// rung of the --jobs ladder differs from the jobs=1 rung in its
// frontier JSON or in its memo hits, memo misses, replays or sibling
// fills (always), or if the speedup falls under 10x (unless
// --no-perf-gate, for sanitizer builds where wall-clock ratios are
// meaningless).
//
//   ./build/pareto_search [--kernels A,B,...] [--scale S]
//                         [--trace-refs N] [--rounds R] [--jobs 1,2,8]
//                         [--naive-sample N] [--no-perf-gate]
//                         [--json FILE]
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "arch/machines.hpp"
#include "arch/variant.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "io/json.hpp"
#include "io/pareto_json.hpp"
#include "study/explore.hpp"
#include "study/pareto.hpp"

int main(int argc, char** argv) {
  using namespace fpr;
  using bench::parse_ladder;

  study::ParetoConfig cfg;
  cfg.base = "KNL";
  cfg.scale = 0.2;
  cfg.threads = 1;
  cfg.trace_refs = 200'000;
  cfg.rounds = 3;
  cfg.kernels = {"AMG", "HPL", "XSBn", "BABL2", "MxIO", "NGSA"};
  std::vector<unsigned> jobs_ladder = {1, 2, 8};
  std::size_t naive_sample = 6;
  bool perf_gate = true;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (bench::parse_measure_option(argc, argv, i, cfg)) continue;
    if (arg == "--rounds") {
      // 0 = the seed round only, as `fpr pareto --rounds 0`.
      cfg.rounds = static_cast<unsigned>(
          bench::parse_count(arg, bench::option_value(argc, argv, i), 0, 4096));
    } else if (arg == "--jobs") {
      jobs_ladder = parse_ladder(arg, bench::option_value(argc, argv, i));
    } else if (arg == "--naive-sample") {
      naive_sample =
          bench::parse_count(arg, bench::option_value(argc, argv, i));
    } else if (arg == "--no-perf-gate") {
      perf_gate = false;
    } else if (arg == "--json") {
      json_path = bench::option_value(argc, argv, i);
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return 2;
    }
  }
  if (jobs_ladder.empty() || jobs_ladder.front() != 1) {
    jobs_ladder.insert(jobs_ladder.begin(), 1);
  }

  std::cout << "Pareto search throughput (incremental evaluator; the "
               "Sec. VII design-space trade, searched under budget)\n\n";
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "host: " << hw << " hardware thread(s); "
            << cfg.kernels.size() << " kernel(s), base " << cfg.base
            << ", trace_refs=" << cfg.trace_refs << ", rounds=" << cfg.rounds
            << "\n\n";

  // Naive baseline: one ExploreEngine (hence one full measurement pass)
  // per candidate, the pre-incremental cost model.
  const arch::CpuSpec base = arch::find_machine(cfg.base).value();
  std::vector<std::string> sample = arch::builtin_variant_specs(base);
  if (sample.size() > naive_sample) sample.resize(naive_sample);
  std::cerr << "[bench] naive baseline: " << sample.size()
            << " x ExploreEngine (re-measures every time)...\n";
  WallTimer naive_timer;
  for (const auto& spec : sample) {
    study::ExploreConfig ncfg;
    static_cast<study::MeasureConfig&>(ncfg) = cfg;
    ncfg.base = cfg.base;
    ncfg.variants = {spec};
    ncfg.jobs = 1;
    study::ExploreEngine engine(ncfg);
    (void)engine.run();
  }
  const double naive_seconds = naive_timer.seconds();
  const double naive_cps =
      naive_seconds > 0 ? static_cast<double>(sample.size()) / naive_seconds
                        : 0.0;

  // Incremental path: the full Pareto search at each jobs count. Every
  // run includes its own one-time measurement phase, so candidates/sec
  // is the honest end-to-end figure, not an evaluate()-only best case.
  TextTable table({"Jobs", "Wall[s]", "Cand/s", "Evald", "Dedup%", "Memo%",
                   "Replays", "Fills", "Identical"});
  std::string base_json;
  bool identical = true;
  bool counters_identical = true;
  double cps_j1 = 0.0;
  double best_cps = 0.0;
  study::ParetoStats stats_j1;
  for (const unsigned jobs : jobs_ladder) {
    auto run_cfg = cfg;
    run_cfg.jobs = jobs;
    WallTimer timer;
    study::ParetoEngine engine(run_cfg);
    const auto results = engine.run();
    const double seconds = timer.seconds();
    const std::string json = io::dump(io::to_json(results));
    const auto& st = engine.stats();
    const double cps =
        seconds > 0 ? static_cast<double>(st.evaluated) / seconds : 0.0;
    if (jobs == 1 && base_json.empty()) {
      base_json = json;
      cps_j1 = cps;
      stats_j1 = st;
    }
    best_cps = std::max(best_cps, cps);
    const bool same_json = json == base_json;
    const bool same_counters =
        st.evaluator.memo_hits == stats_j1.evaluator.memo_hits &&
        st.evaluator.memo_misses == stats_j1.evaluator.memo_misses &&
        st.evaluator.replays == stats_j1.evaluator.replays &&
        st.evaluator.sibling_fills == stats_j1.evaluator.sibling_fills;
    const double memo_total = static_cast<double>(st.evaluator.memo_hits +
                                                  st.evaluator.memo_misses);
    table.row()
        .integer(jobs)
        .num(seconds, 3)
        .num(cps, 1)
        .integer(static_cast<long long>(st.evaluated))
        .num(st.generated > 0 ? 100.0 * static_cast<double>(st.deduped) /
                                    static_cast<double>(st.generated)
                              : 0.0,
             1)
        .num(memo_total > 0 ? 100.0 *
                                  static_cast<double>(st.evaluator.memo_hits) /
                                  memo_total
                            : 0.0,
             1)
        .integer(static_cast<long long>(st.evaluator.replays))
        .integer(static_cast<long long>(st.evaluator.sibling_fills))
        .cell(same_json && same_counters ? "yes" : "NO")
        .done();
    if (!same_json) {
      identical = false;
      std::cerr << "[bench] DETERMINISM VIOLATION at jobs=" << jobs << "\n";
    }
    if (!same_counters) {
      counters_identical = false;
      std::cerr << "[bench] COUNTER MISMATCH at jobs=" << jobs
                << ": memo hits/misses, replays or sibling fills differ "
                   "from jobs=1\n";
    }
  }
  table.print(std::cout);

  const double speedup = naive_cps > 0 ? cps_j1 / naive_cps : 0.0;
  const double memo_total = static_cast<double>(
      stats_j1.evaluator.memo_hits + stats_j1.evaluator.memo_misses);
  std::cout << "\nnaive (ExploreEngine-per-variant): " << sample.size()
            << " candidate(s) in " << naive_seconds << " s = " << naive_cps
            << " cand/s\nincremental (jobs=1):              "
            << stats_j1.evaluated << " candidate(s) at " << cps_j1
            << " cand/s\nspeedup: " << speedup << "x (gate: >= 10x"
            << (perf_gate ? "" : ", DISABLED") << ")\n";

  if (!json_path.empty()) {
    io::Json doc =
        io::Json::object()
            .set("format", std::string("fpr-bench-pareto"))
            .set("version", std::int64_t{1})
            .set("naive_candidates_per_sec", naive_cps)
            .set("candidates_per_sec_jobs1", cps_j1)
            .set("candidates_per_sec_best", best_cps)
            .set("speedup_vs_naive", speedup)
            .set("generated", static_cast<std::int64_t>(stats_j1.generated))
            .set("evaluated", static_cast<std::int64_t>(stats_j1.evaluated))
            .set("dedup_rate",
                 stats_j1.generated > 0
                     ? static_cast<double>(stats_j1.deduped) /
                           static_cast<double>(stats_j1.generated)
                     : 0.0)
            .set("memo_hit_rate",
                 memo_total > 0 ? static_cast<double>(
                                      stats_j1.evaluator.memo_hits) /
                                      memo_total
                                : 0.0)
            .set("replays",
                 static_cast<std::int64_t>(stats_j1.evaluator.replays))
            .set("sibling_fills",
                 static_cast<std::int64_t>(stats_j1.evaluator.sibling_fills))
            .set("frontier_identical_across_jobs", identical)
            .set("counters_identical_across_jobs", counters_identical);
    std::ofstream out(json_path);
    out << io::dump(doc) << "\n";
    if (!out) {
      std::cerr << "[bench] failed to write " << json_path << "\n";
      return 1;
    }
    std::cerr << "[bench] wrote " << json_path << "\n";
  }

  if (!identical || !counters_identical) return 1;
  if (perf_gate && speedup < 10.0) {
    std::cerr << "[bench] PERF GATE FAILED: " << speedup << "x < 10x\n";
    return 1;
  }
  return 0;
}
