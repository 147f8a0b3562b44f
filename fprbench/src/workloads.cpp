#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>

#include "arch/machines.hpp"
#include "arch/variant.hpp"
#include "cli/cli.hpp"
#include "io/json.hpp"
#include "io/pareto_json.hpp"
#include "io/study_json.hpp"
#include "io/trace_format.hpp"
#include "io/trace_replay.hpp"
#include "kernels/kernel.hpp"
#include "layers.hpp"
#include "memsim/sim_cache.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"
#include "proc.hpp"
#include "study/paper_data.hpp"
#include "study/pareto.hpp"
#include "study/study_engine.hpp"
#include "study/variant_eval.hpp"

namespace fprbench {
namespace {

using namespace fpr;

// Every workload runs at the CLI defaults for scale and trace length,
// with single-threaded kernel runs (host-independent op counts) and one
// engine worker per hardware thread of the 4-thread reference host.
constexpr double kScale = 0.3;
constexpr unsigned kJobs = 4;
constexpr std::uint64_t kRefs = model::kDefaultTraceRefs;
constexpr unsigned kShift = model::kDefaultScaleShift;
/// Measured records of each recorded trace; an equal warmup precedes them.
constexpr std::uint64_t kTraceRefs = 4'000'000;

/// Per-layer samples, one per traced repetition; reported as medians.
using Samples = std::map<std::string, std::vector<double>>;

void put_medians(Outcome& out, const Samples& s) {
  for (const auto& [name, v] : s) out.values[name] = median(v);
}

/// Run `fn` until `seconds` have passed, and at least `min_runs` times.
template <typename F>
void repeat_for(double seconds, int min_runs, F&& fn) {
  const double start = now_s();
  for (int n = 0; n < min_runs || now_s() - start < seconds; ++n) fn();
}

struct CliRun {
  int code = 0;
  double wall_s = 0.0;
  std::string out;
};

/// The `fpr` command line run in-process through cli::run_cli.
CliRun cli_in_process(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  CliRun r;
  r.wall_s = time_once([&] { r.code = cli::run_cli(args, out, err); });
  r.out = out.str();
  return r;
}

const arch::CpuSpec& machine(const std::string& short_name) {
  static const auto all = arch::all_machines();
  for (const auto& m : all) {
    if (m.short_name == short_name) return m;
  }
  throw std::invalid_argument("unknown machine " + short_name);
}

study::StudyConfig study_config(const Options& o, unsigned jobs, bool sweep) {
  study::StudyConfig c;
  c.kernels = kernels::all_abbrevs();
  c.scale = kScale;
  c.threads = 1;
  c.seed = o.kernel_seed;
  c.trace_refs = kRefs;
  c.freq_sweep = sweep;
  c.jobs = jobs;
  c.kernel_jobs = 1;
  c.canonical_timing = true;
  return c;
}

study::ParetoConfig pareto_config(const Options& o, unsigned jobs) {
  study::ParetoConfig c;
  c.kernels = kernels::all_abbrevs();
  c.scale = kScale;
  c.threads = 1;
  c.seed = o.kernel_seed;
  c.trace_refs = kRefs;
  c.jobs = jobs;
  c.kernel_jobs = 1;
  c.search_seed = o.search_seed;
  return c;
}

/// What `fpr <cmd> --out -` prints for a results document.
std::string cli_bytes(const io::Json& doc) { return io::dump(doc) + "\n"; }

Table4Error table4_of(const study::StudyResults& r) {
  std::vector<ModelTimes> times;
  for (const auto& k : r.kernels) {
    times.push_back({k.info.abbrev, k.on("KNL").perf.seconds,
                     k.on("KNM").perf.seconds, k.on("BDW").perf.seconds});
  }
  return table4_log_error(times, study::table4());
}

void put_table4(Outcome& out, const Table4Error& e) {
  out.values["table4_log_err"] = e.mean;
  for (const auto& [abbrev, err] : e.per_kernel) {
    out.values["study.log_err." + abbrev] = err;
  }
  std::string skipped;
  for (const auto& abbrev : e.skipped) skipped += " " + abbrev;
  out.notes.push_back("table4_log_err over " +
                      std::to_string(e.per_kernel.size()) +
                      " kernels; no paper row:" + skipped);
}

/// Failed (kernel, machine) units of a study document against the
/// reference. A byte difference no unit explains fails every unit.
std::uint64_t study_unit_failures(const std::string& got, const io::Json& ref,
                                  std::uint64_t units) {
  try {
    const io::Json doc = io::parse(got);
    const auto& gk = doc.at("kernels").as_array();
    const auto& rk = ref.at("kernels").as_array();
    if (gk.size() != rk.size()) return units;
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < rk.size(); ++i) {
      const auto& gm = gk[i].at("machines").as_array();
      const auto& rm = rk[i].at("machines").as_array();
      const bool head_same =
          gm.size() == rm.size() &&
          io::dump(gk[i].at("info")) == io::dump(rk[i].at("info")) &&
          io::dump(gk[i].at("measurement")) == io::dump(rk[i].at("measurement"));
      for (std::size_t j = 0; j < rm.size(); ++j) {
        if (!head_same || io::dump(gm[j]) != io::dump(rm[j])) ++failed;
      }
    }
    return failed == 0 ? units : failed;
  } catch (const std::exception&) {
    return units;
  }
}

/// One (machine, measurement) pair whose replay and model work is
/// re-staged.
struct Pair {
  arch::CpuSpec cpu;
  const kernels::WorkloadMeasurement* meas = nullptr;
};

/// Per-level walk samples keyed by the contract's level names.
void put_walks(Samples& s, const std::map<std::string, LevelWalk>& walk) {
  const std::pair<const char*, const char*> names[] = {
      {"L1", "memsim.walk_l1_mref_per_s"},
      {"L2", "memsim.walk_l2_mref_per_s"},
      {"LLC", "memsim.walk_llc_mref_per_s"},
      {"MCDRAM$", "memsim.walk_mcdram_mref_per_s"}};
  for (const auto& [level, metric] : names) {
    const auto it = walk.find(level);
    const bool seen = it != walk.end() && it->second.seconds > 0.0;
    s[metric].push_back(seen ? static_cast<double>(it->second.refs) / 1e6 /
                                   it->second.seconds
                             : 0.0);
  }
}

/// Re-stages every distinct replay behind `pairs` through a real
/// Hierarchy::replay over a TimedSource (replay and generator time) and
/// once more as a staged level walk (per-level time), then times the
/// model on warm profiles (replays excluded). When `engine_cache` is
/// given, each re-staged replay must equal the engine's memoized one.
/// Returns the summed model seconds per pass.
double restage_memsim_model(const std::vector<Pair>& pairs, bool sweep,
                            memsim::SimCache* engine_cache, Samples& s,
                            Outcome& out) {
  memsim::SimCache warm;
  std::set<std::string> seen;
  double replay_s = 0.0, gen_s = 0.0, mix_s = 0.0;
  std::uint64_t gen_refs = 0, mix_refs = 0, replays = 0;
  std::map<std::string, LevelWalk> walk;
  for (const Pair& p : pairs) {
    const auto sliced = model::per_core_slice(p.meas->access, p.cpu.cores);
    const std::string key = memsim::SimCache::key(
        p.cpu, sliced, kRefs, model::kProfileSeed, kShift);
    if (!seen.insert(key).second) continue;
    const auto scaled = memsim::scale_spec(sliced, kShift);
    const std::string what = p.meas->name + " on " + p.cpu.short_name;

    memsim::Hierarchy h(p.cpu, kShift);
    memsim::SyntheticTraceSource syn(scaled, model::kProfileSeed);
    TimedSource timed(syn);
    memsim::HierarchyResult res;
    replay_s += time_once([&] { res = h.replay(timed, kRefs, kRefs); });
    ++replays;
    gen_s += timed.seconds();
    gen_refs += timed.records();
    if (scaled.components.size() >= 2) {
      mix_s += timed.seconds();
      mix_refs += timed.records();
    }

    memsim::Hierarchy staged_h(p.cpu, kShift);
    memsim::SyntheticTraceSource staged_src(scaled, model::kProfileSeed);
    std::vector<LevelWalk> walks;
    const auto staged = staged_walk(staged_h, staged_src, kRefs, kRefs, walks);
    for (const auto& w : walks) {
      walk[w.name].seconds += w.seconds;
      walk[w.name].refs += w.refs;
    }
    if (!same_counts(staged, res)) {
      out.fail("staged level walk differs from Hierarchy::replay for " + what);
    }
    if (engine_cache != nullptr) {
      const auto memo = engine_cache->find(key);
      if (!memo || !same_counts(*memo, res)) {
        out.fail("re-staged replay differs from the engine's for " + what);
      }
    }
    warm.insert(key, std::move(res));
  }
  const double refs_m = static_cast<double>(replays * 2 * kRefs) / 1e6;
  s["memsim.replay_s"].push_back(replay_s);
  s["memsim.replays"].push_back(static_cast<double>(replays));
  s["memsim.refs_m"].push_back(refs_m);
  s["memsim.replay_mref_per_s"].push_back(replay_s > 0 ? refs_m / replay_s : 0);
  s["memsim.gen_mref_per_s"].push_back(
      gen_s > 0 ? static_cast<double>(gen_refs) / 1e6 / gen_s : 0.0);
  s["memsim.gen_mixture_mref_per_s"].push_back(
      mix_s > 0 ? static_cast<double>(mix_refs) / 1e6 / mix_s : 0.0);
  put_walks(s, walk);

  std::vector<model::MemoryProfile> mems(pairs.size());
  const double profile_s = time_per_call([&] {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      mems[i] = model::profile_memory(pairs[i].cpu, *pairs[i].meas, kRefs,
                                      kShift, &warm);
    }
  });
  std::uint64_t evals = 0;
  double sink = 0.0;
  const double evaluate_s = time_per_call([&] {
    evals = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& cpu = pairs[i].cpu;
      sink += model::evaluate_at_turbo(cpu, *pairs[i].meas, mems[i]).seconds;
      ++evals;
      if (!sweep) continue;
      for (const auto& fs : cpu.frequency_sweep()) {
        sink += model::evaluate(cpu, fs.ghz, *pairs[i].meas, mems[i]).seconds;
        ++evals;
      }
    }
  });
  if (!(sink > 0.0)) out.fail("model produced no positive time");
  s["model.profile_s"].push_back(profile_s);
  s["model.evaluate_s"].push_back(evaluate_s);
  s["model.evals"].push_back(static_cast<double>(evals));
  return profile_s + evaluate_s;
}

/// Kernel-layer samples from the decorated runs of one engine run that
/// started at `engine_start`.
void put_kernel_runs(Samples& s, const std::vector<KernelRun>& runs,
                     double engine_start) {
  double run_s = 0.0, gop = 0.0, last_end = engine_start;
  for (const auto& r : runs) {
    run_s += r.span.duration();
    gop += static_cast<double>(r.meas.ops.fp64 + r.meas.ops.fp32 +
                               r.meas.ops.int_ops) /
           1e9;
    last_end = std::max(last_end, r.span.end);
  }
  s["kernels.run_s"].push_back(run_s);
  s["kernels.runs"].push_back(static_cast<double>(runs.size()));
  s["kernels.gop"].push_back(gop);
  s["study.measure_s"].push_back(last_end - engine_start);
}

/// JSON-layer samples: parse the command's output, dump it back (the
/// dump must reproduce the bytes).
void put_json(Samples& s, const std::string& bytes, Outcome& out) {
  io::Json doc;
  s["io.json_parse_s"].push_back(time_per_call([&] { doc = io::parse(bytes); }));
  std::string again;
  s["io.json_dump_s"].push_back(
      time_per_call([&] { again = cli_bytes(doc); }));
  if (again != bytes) out.fail("JSON parse/dump does not round-trip the output");
}

/// CLI self time, tracing overhead and parallel efficiency from the
/// serial engine or replay call, untraced and traced, the in-process CLI
/// command around it, and the measured parallel command.
void put_overheads(Outcome& out, double cli_wall, double plain_call,
                   double traced_call, double parallel_wall) {
  out.values["cli.self_s"] = self_time(cli_wall, plain_call);
  out.values["bench.trace_overhead_s"] = traced_call - plain_call;
  out.values["study.parallel_efficiency"] =
      parallel_wall > 0 ? plain_call / (parallel_wall * kJobs) : 0.0;
  out.notes.push_back("tracing overhead: traced call " +
                      format_number(traced_call) + " s vs untraced " +
                      format_number(plain_call) + " s");
}

/// End-to-end samples of the measured child-process runs.
struct Measured {
  std::vector<double> wall_s;
  std::vector<double> rss_mb;
};

std::string joined(const std::vector<double>& v) {
  std::string s;
  for (const double x : v) {
    s += ' ';
    s += format_number(x);
  }
  return s;
}

void put_end_to_end(Outcome& out, const Measured& m,
                    const std::vector<double>& setup, double mref,
                    double units) {
  const double wall = median(m.wall_s);
  out.values["wall_s"] = wall;
  out.values["setup_s"] = median(setup);
  out.values["peak_rss_mb"] = median(m.rss_mb);
  out.values["mref_per_s"] = wall > 0 ? mref / wall : 0.0;
  out.values["candidates_per_s"] = wall > 0 ? units / wall : 0.0;
  out.notes.push_back("measured runs: " + std::to_string(m.wall_s.size()) +
                      ", wall spread (q3-q1)/median " +
                      format_number(relative_spread(m.wall_s)) +
                      ", wall samples [s]:" + joined(m.wall_s));
  out.notes.push_back("set-up samples [s]:" + joined(setup));
}

}  // namespace

// ---------------------------------------------------------------------
// study: `fpr study --threads 1 --jobs 4`, all kernels, the three
// machines, the frequency sweep.

Outcome run_study(const Options& o, Spawner& spawn) {
  Outcome out;
  const std::uint64_t units =
      kernels::all_abbrevs().size() * arch::all_machines().size();

  // Set-up: the serial (jobs=1) reference, repeated; its bytes are the
  // oracle every run is checked against.
  std::vector<double> setup, engine_s;
  std::string ref_bytes;
  study::StudyResults ref;
  study::EngineStats ref_stats;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    study::StudyEngine engine(study_config(o, 1, true));
    auto r = engine.run();
    engine_s.push_back(now_s() - t0);
    std::string bytes = cli_bytes(io::to_json(r));
    setup.push_back(now_s() - t0);
    if (rep == 0) {
      ref_bytes = std::move(bytes);
      ref = std::move(r);
      ref_stats = engine.stats();
    } else if (bytes != ref_bytes) {
      out.fail("serial reference differs between set-up repetitions");
    }
  }
  const io::Json ref_doc = io::parse(ref_bytes);
  put_table4(out, table4_of(ref));

  const std::string seed = std::to_string(o.kernel_seed);
  const std::vector<std::string> argv = {
      o.fpr,  "study", "--threads", "1", "--jobs", std::to_string(kJobs),
      "--seed", seed,  "--out",     "-"};
  Measured m;
  repeat_for(o.trace ? 0.0 : o.seconds, o.trace ? 1 : 3, [&] {
    const ProcResult p = spawn.run(argv);
    m.wall_s.push_back(p.wall_s);
    m.rss_mb.push_back(p.peak_rss_mb);
    out.attempted += units;
    if (p.exit_code != 0) {
      out.failed += units;
      out.problems.push_back("fpr study exited " + std::to_string(p.exit_code));
    } else if (p.out != ref_bytes) {
      out.failed += study_unit_failures(p.out, ref_doc, units);
      out.problems.push_back("fpr study output differs from the reference");
    }
  });
  // Only replays the memo missed are simulated (exact at jobs=1).
  const double mref = static_cast<double>(ref_stats.sim_misses * 2 * kRefs) / 1e6;
  put_end_to_end(out, m, setup, mref, static_cast<double>(units));
  if (!o.trace) return out;

  // Traced: the same serial configuration with timing-decorated kernels
  // and a caller-owned replay memo, re-staged layer by layer.
  const CliRun cli = cli_in_process({"study", "--threads", "1", "--jobs", "1",
                                     "--seed", seed, "--out", "-"});
  if (cli.code != 0 || cli.out != ref_bytes) {
    out.fail("in-process fpr study differs from the serial reference");
  }
  Samples s;
  std::vector<double> traced_call;
  repeat_for(o.seconds, 1, [&] {
    auto log = std::make_shared<KernelLog>();
    auto cache = std::make_shared<memsim::SimCache>();
    auto cfg = study_config(o, 1, true);
    cfg.sim_cache = cache;
    const double e0 = now_s();
    study::StudyEngine engine(cfg, timed_factory(log));
    const auto r = engine.run();
    traced_call.push_back(now_s() - e0);
    const std::string bytes = cli_bytes(io::to_json(r));
    out.attempted += units;
    if (bytes != ref_bytes) {
      out.failed += study_unit_failures(bytes, ref_doc, units);
      out.problems.push_back("traced study output differs from the untraced");
    }
    const auto& st = engine.stats();
    s["study.machine_evals"].push_back(static_cast<double>(st.machine_evals));
    const auto lookups = st.sim_hits + st.sim_misses;
    s["memsim.sim_hit_ratio"].push_back(
        lookups > 0 ? static_cast<double>(st.sim_hits) / lookups : 0.0);
    put_kernel_runs(s, log->runs(), e0);

    std::vector<Pair> pairs;
    for (const auto& k : r.kernels) {
      for (const auto& mr : k.machines) pairs.push_back({mr.cpu, &k.meas});
    }
    const double model_s =
        restage_memsim_model(pairs, true, cache.get(), s, out);
    s["study.evaluate_us"].push_back(model_s / pairs.size() * 1e6);
  });
  put_json(s, ref_bytes, out);
  put_medians(out, s);
  put_overheads(out, cli.wall_s, median(engine_s), median(traced_call),
                median(m.wall_s));
  return out;
}

// ---------------------------------------------------------------------
// trace: `fpr trace FILE --threads 4` over an XSBn trace (random gather)
// and a BABL14 trace (unit-stride streams), each replayed on KNL, KNM
// and BDW.

namespace {

struct Recording {
  std::string abbrev;
  std::string machine;  ///< the machine the trace is sliced for
  std::string path;
  memsim::AccessPatternSpec sliced;
  memsim::AccessPatternSpec scaled;
  std::uint64_t digest = 0;
  std::uint64_t bytes = 0;
};

/// Record `kTraceRefs` warmup plus `kTraceRefs` measured references of
/// the recording's generator, as `fpr-trace record` does.
void record(Recording& r, std::uint64_t seed, double& gen_s, double& write_s) {
  memsim::TraceGenerator gen(r.scaled, seed);
  io::TraceWriter writer(r.path);
  std::vector<memsim::MemRef> block(4096);
  const std::uint64_t total = 2 * kTraceRefs;
  for (std::uint64_t done = 0; done < total;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(block.size(), total - done));
    gen_s += time_once([&] { gen.fill(block.data(), n); });
    write_s += time_once([&] { writer.append(block.data(), n); });
    done += n;
  }
  write_s += time_once([&] { writer.finish(); });
  r.digest = writer.digest();
  r.bytes = std::filesystem::file_size(r.path);
}

/// Deletes the recorded trace files however the workload ends.
struct RemoveRecordings {
  const std::vector<Recording>& recs;
  ~RemoveRecordings() {
    std::error_code ignored;
    for (const auto& r : recs) std::filesystem::remove(r.path, ignored);
  }
};

bool levels_match(const io::Json& levels, const memsim::HierarchyResult& r) {
  const auto& arr = levels.as_array();
  if (arr.size() != r.levels.size()) return false;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const auto& l = r.levels[i];
    if (arr[i].at("name").as_string() != l.name ||
        arr[i].at("hits").as_u64() != l.stats.hits ||
        arr[i].at("misses").as_u64() != l.stats.misses ||
        arr[i].at("writebacks").as_u64() != l.stats.writebacks) {
      return false;
    }
  }
  return true;
}

/// Failed (trace, machine) units of one `fpr trace --out -` document.
std::uint64_t trace_unit_failures(
    const std::string& got, const std::vector<arch::CpuSpec>& machines,
    const std::vector<memsim::HierarchyResult>& oracle) {
  try {
    const io::Json doc = io::parse(got);
    const auto& entries = doc.at("machines").as_array();
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < machines.size(); ++i) {
      const auto it = std::find_if(entries.begin(), entries.end(),
                                   [&](const io::Json& e) {
                                     return e.at("machine").as_string() ==
                                            machines[i].short_name;
                                   });
      if (it == entries.end() || !levels_match(it->at("levels"), oracle[i])) {
        ++failed;
      }
    }
    return failed;
  } catch (const std::exception&) {
    return machines.size();
  }
}

}  // namespace

Outcome run_trace(const Options& o, Spawner& spawn) {
  Outcome out;
  const auto machines = arch::all_machines();

  // One-time set-up: measure the kernels at the study configuration (the
  // paper anchor, and the access specs the traces are recorded from).
  study::StudyEngine anchor_engine(study_config(o, kJobs, false));
  const auto anchor = anchor_engine.run();
  put_table4(out, table4_of(anchor));

  std::filesystem::create_directories(o.work_dir);
  std::vector<Recording> recs = {{"XSBn", "BDW", "", {}, {}, 0, 0},
                                 {"BABL14", "KNL", "", {}, {}, 0, 0}};
  for (auto& r : recs) {
    const auto* k = anchor.find(r.abbrev);
    if (k == nullptr) throw std::runtime_error("no kernel " + r.abbrev);
    r.path = o.work_dir + "/" + r.abbrev + ".fpt";
    r.sliced = model::per_core_slice(k->meas.access, machine(r.machine).cores);
    r.scaled = memsim::scale_spec(r.sliced, kShift);
  }
  const RemoveRecordings cleanup{recs};

  // Set-up step, repeated: record both traces. It is short and writes
  // to disk, so it takes more repetitions than the other set-ups.
  std::vector<double> setup, gen_s, write_s;
  std::vector<std::uint64_t> digests;
  for (int rep = 0; rep < 5; ++rep) {
    double gen = 0.0, write = 0.0;
    setup.push_back(time_once([&] {
      for (auto& r : recs) record(r, o.record_seed, gen, write);
    }));
    gen_s.push_back(gen);
    write_s.push_back(write);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (rep == 0) {
        digests.push_back(recs[i].digest);
      } else if (recs[i].digest != digests[i]) {
        out.fail("re-recorded " + recs[i].abbrev + " trace has another digest");
      }
    }
  }

  // Oracle, per trace and machine: the recorded generator stream
  // replayed without the file. On the recording machine that is exactly
  // memsim::simulate_pattern of the recorded spec.
  std::vector<std::vector<memsim::HierarchyResult>> oracle(recs.size());
  for (std::size_t t = 0; t < recs.size(); ++t) {
    for (const auto& cpu : machines) {
      if (cpu.short_name == recs[t].machine) {
        oracle[t].push_back(memsim::simulate_pattern(
            cpu, recs[t].sliced, kTraceRefs, o.record_seed, kShift));
      } else {
        memsim::Hierarchy h(cpu, kShift);
        memsim::SyntheticTraceSource src(recs[t].scaled, o.record_seed);
        oracle[t].push_back(h.replay(src, kTraceRefs, kTraceRefs));
      }
    }
  }

  const std::string warmup = std::to_string(kTraceRefs);
  Measured m;
  repeat_for(o.trace ? 0.0 : o.seconds, o.trace ? 1 : 3, [&] {
    double wall = 0.0, rss = 0.0;
    for (std::size_t t = 0; t < recs.size(); ++t) {
      const ProcResult p =
          spawn.run({o.fpr, "trace", recs[t].path, "--threads", "4",
                     "--warmup", warmup, "--out", "-"});
      wall += p.wall_s;
      rss = std::max(rss, p.peak_rss_mb);
      out.attempted += machines.size();
      if (p.exit_code != 0) {
        out.failed += machines.size();
        out.problems.push_back("fpr trace exited " +
                               std::to_string(p.exit_code));
      } else if (const auto f =
                     trace_unit_failures(p.out, machines, oracle[t])) {
        out.failed += f;
        out.problems.push_back("fpr trace counts differ from the oracle for " +
                               recs[t].abbrev);
      }
    }
    m.wall_s.push_back(wall);
    m.rss_mb.push_back(rss);
  });
  const double units = static_cast<double>(recs.size() * machines.size());
  put_end_to_end(out, m, setup,
                 units * static_cast<double>(2 * kTraceRefs) / 1e6, units);
  if (!o.trace) return out;

  Samples s;
  std::uint64_t file_bytes = 0;
  for (const auto& r : recs) file_bytes += r.bytes;
  s["io.trace_bytes_per_ref"].push_back(
      static_cast<double>(file_bytes) /
      static_cast<double>(recs.size() * 2 * kTraceRefs));
  s["io.trace_write_s"].push_back(median(write_s));
  s["memsim.gen_mref_per_s"].push_back(
      static_cast<double>(recs.size() * 2 * kTraceRefs) / 1e6 / median(gen_s));

  // The untraced command in-process, then the traced re-staging.
  double cli_wall = 0.0;
  for (std::size_t t = 0; t < recs.size(); ++t) {
    const CliRun cli = cli_in_process({"trace", recs[t].path, "--threads", "4",
                                       "--warmup", warmup, "--out", "-"});
    cli_wall += cli.wall_s;
    if (cli.code != 0 || trace_unit_failures(cli.out, machines, oracle[t])) {
      out.fail("in-process fpr trace differs from the oracle");
    }
    put_json(s, cli.out, out);
  }
  std::vector<io::TraceInfo> infos;
  for (const auto& r : recs) infos.push_back(io::read_trace_info(r.path));

  std::vector<std::vector<memsim::HierarchyResult>> traced(recs.size());
  std::vector<double> plain_call, traced_call;
  repeat_for(o.seconds, 1, [&] {
    double plain_s = 0.0, traced_s = 0.0, decode_s = 0.0;
    std::uint64_t decoded = 0;
    std::map<std::string, LevelWalk> walk;
    for (std::size_t t = 0; t < recs.size(); ++t) {
      traced[t].clear();
      for (std::size_t i = 0; i < machines.size(); ++i) {
        const auto& cpu = machines[i];
        const std::string what = recs[t].abbrev + " on " + cpu.short_name;
        memsim::HierarchyResult plain;
        plain_s += time_once([&] {
          plain = io::replay_trace_cached(nullptr, cpu, recs[t].path,
                                          kTraceRefs, kTraceRefs, kShift);
        });

        memsim::HierarchyResult res;
        traced_s += time_once([&] {
          io::FileTraceSource file(recs[t].path);
          TimedSource timed(file);
          memsim::Hierarchy h(cpu, kShift);
          res = h.replay(timed, kTraceRefs, kTraceRefs);
          decode_s += timed.seconds();
          decoded += timed.records();
        });

        io::FileTraceSource file(recs[t].path);
        memsim::Hierarchy staged_h(cpu, kShift);
        std::vector<LevelWalk> walks;
        const auto staged =
            staged_walk(staged_h, file, kTraceRefs, kTraceRefs, walks);
        for (const auto& w : walks) {
          walk[w.name].seconds += w.seconds;
          walk[w.name].refs += w.refs;
        }
        out.attempted += 1;
        if (!same_counts(res, oracle[t][i]) || !same_counts(plain, res) ||
            !same_counts(staged, res)) {
          out.failed += 1;
          out.problems.push_back("traced replay differs for " + what);
        }
        traced[t].push_back(std::move(res));
      }
    }
    const double refs_m = units * static_cast<double>(2 * kTraceRefs) / 1e6;
    plain_call.push_back(plain_s);
    traced_call.push_back(traced_s);
    s["memsim.replay_s"].push_back(traced_s);
    s["memsim.replays"].push_back(units);
    s["memsim.refs_m"].push_back(refs_m);
    s["memsim.replay_mref_per_s"].push_back(refs_m / traced_s);
    s["io.trace_decode_mref_per_s"].push_back(
        static_cast<double>(decoded) / 1e6 / decode_s);
    put_walks(s, walk);
  });
  double sink = 0.0;
  s["model.profile_s"].push_back(time_per_call([&] {
    for (std::size_t t = 0; t < recs.size(); ++t) {
      for (std::size_t i = 0; i < machines.size(); ++i) {
        sink += model::profile_trace(machines[i], traced[t][i],
                                     infos[t].working_set_bytes())
                    .effective_bw_gbs;
      }
    }
  }));
  if (!(sink > 0.0)) out.fail("trace profiles produced no bandwidth");
  // Every replay of `fpr trace` is a distinct memo key: no memo hits.
  s["memsim.sim_hit_ratio"].push_back(0.0);

  put_medians(out, s);
  put_overheads(out, cli_wall, median(plain_call), median(traced_call),
                median(m.wall_s));
  return out;
}

// ---------------------------------------------------------------------
// pareto: `fpr pareto --threads 1 --jobs 4` with the CLI defaults (all
// kernels, base KNL, 3 rounds).

Outcome run_pareto(const Options& o, Spawner& spawn) {
  Outcome out;

  // One-time set-up: the paper anchor for this kernel configuration.
  {
    study::StudyEngine anchor_engine(study_config(o, kJobs, false));
    put_table4(out, table4_of(anchor_engine.run()));
  }

  // Set-up step, repeated: the serial (jobs=1) reference frontier.
  std::vector<double> setup, engine_s;
  std::string ref_bytes;
  study::ParetoResults ref;
  study::ParetoStats ref_stats;
  for (int rep = 0; rep < 2; ++rep) {
    const double t0 = now_s();
    study::ParetoEngine engine(pareto_config(o, 1));
    auto r = engine.run();
    engine_s.push_back(now_s() - t0);
    std::string bytes = cli_bytes(io::to_json(r));
    setup.push_back(now_s() - t0);
    if (rep == 0) {
      ref_bytes = std::move(bytes);
      ref = std::move(r);
      ref_stats = engine.stats();
    } else if (bytes != ref_bytes) {
      out.fail("serial reference differs between set-up repetitions");
    }
  }

  const std::string seed = std::to_string(o.kernel_seed);
  const std::string search_seed = std::to_string(o.search_seed);
  const std::vector<std::string> argv = {
      o.fpr,    "pareto", "--threads", "1",   "--jobs",        std::to_string(kJobs),
      "--seed", seed,     "--search-seed", search_seed, "--out", "-"};
  Measured m;
  repeat_for(o.trace ? 0.0 : o.seconds, o.trace ? 1 : 3, [&] {
    const ProcResult p = spawn.run(argv);
    m.wall_s.push_back(p.wall_s);
    m.rss_mb.push_back(p.peak_rss_mb);
    out.attempted += 1;
    if (p.exit_code != 0 || p.out != ref_bytes) {
      out.failed += 1;
      out.problems.push_back("fpr pareto frontier differs from the reference");
    }
  });
  // The engine reports the replays of its measurement phase (the base
  // machine); replays of geometry-changing variants stay inside the
  // evaluator and are not counted here.
  const double mref =
      static_cast<double>(ref_stats.measurement.sim_misses * 2 * kRefs) / 1e6;
  put_end_to_end(out, m, setup, mref,
                 static_cast<double>(ref_stats.evaluated));
  if (!o.trace) return out;

  const CliRun cli = cli_in_process(
      {"pareto", "--threads", "1", "--jobs", "1", "--seed", seed,
       "--search-seed", search_seed, "--out", "-"});
  if (cli.code != 0 || cli.out != ref_bytes) {
    out.fail("in-process fpr pareto differs from the serial reference");
  }
  const arch::CpuSpec& base = machine("KNL");
  Samples s;
  std::vector<double> traced_call;
  repeat_for(o.seconds, 1, [&] {
    auto log = std::make_shared<KernelLog>();
    const double e0 = now_s();
    study::ParetoEngine engine(pareto_config(o, 1), timed_factory(log));
    const auto r = engine.run();
    traced_call.push_back(now_s() - e0);
    const std::string bytes = cli_bytes(io::to_json(r));
    out.attempted += 1;
    if (bytes != ref_bytes) {
      out.failed += 1;
      out.problems.push_back("traced frontier differs from the untraced");
    }
    const auto& st = engine.stats();
    const auto runs = log->runs();
    put_kernel_runs(s, runs, e0);
    s["study.candidates_generated"].push_back(static_cast<double>(st.generated));
    s["study.candidates_evaluated"].push_back(static_cast<double>(st.evaluated));
    s["study.dedup_ratio"].push_back(
        st.generated > 0 ? static_cast<double>(st.deduped) / st.generated : 0.0);
    const auto memo = st.evaluator.memo_hits + st.evaluator.memo_misses;
    s["study.memo_hit_ratio"].push_back(
        memo > 0 ? static_cast<double>(st.evaluator.memo_hits) / memo : 0.0);
    s["study.frontier_points"].push_back(static_cast<double>(r.frontier.size()));
    s["study.machine_evals"].push_back(static_cast<double>(
        st.measurement.machine_evals + st.evaluator.evaluations * runs.size()));
    const auto lookups = st.measurement.sim_hits + st.measurement.sim_misses;
    s["memsim.sim_hit_ratio"].push_back(
        lookups > 0 ? static_cast<double>(st.measurement.sim_hits) / lookups
                    : 0.0);

    std::vector<Pair> pairs;
    for (const auto& run : runs) pairs.push_back({base, &run.meas});
    restage_memsim_model(pairs, false, nullptr, s, out);
  });

  // Warm scoring: a fresh evaluator, every frontier variant scored once
  // cold (filling the memo), then timed warm; scores must match.
  study::VariantEvaluator::Config vc;
  vc.kernels = kernels::all_abbrevs();
  vc.scale = kScale;
  vc.threads = 1;
  vc.trace_refs = kRefs;
  vc.seed = o.kernel_seed;
  study::VariantEvaluator evaluator(base, vc);
  std::vector<arch::MachineVariant> variants;
  for (const auto& p : ref.frontier) {
    variants.push_back(arch::derive_variant(base, p.spec()));
    if (evaluator.evaluate(variants.back()).geomean_time_ratio !=
        p.score.geomean_time_ratio) {
      out.fail("re-scored frontier point " + p.name() + " differs");
    }
  }
  double sink = 0.0;
  const double pass_s = time_per_call([&] {
    for (const auto& v : variants) sink += evaluator.evaluate(v).site_pct_peak;
  });
  s["study.evaluate_us"].push_back(pass_s / variants.size() * 1e6);
  put_json(s, ref_bytes, out);
  put_medians(out, s);
  put_overheads(out, cli.wall_s, median(engine_s), median(traced_call),
                median(m.wall_s));
  return out;
}

// ---------------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> m = {
      {"wall_s", "s", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"mref_per_s", "Mref/s", "higher"},
      {"candidates_per_s", "1/s", "higher"},
      {"table4_log_err", "ln", "lower"},
  };
  return m;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> m = [] {
    std::vector<MetricSpec> v = {
        {"kernels.run_s", "s", "lower"},
        {"kernels.runs", "count", "lower"},
        {"kernels.gop", "Gop", "lower"},
        {"memsim.gen_mref_per_s", "Mref/s", "higher"},
        {"memsim.gen_mixture_mref_per_s", "Mref/s", "higher"},
        {"memsim.walk_l1_mref_per_s", "Mref/s", "higher"},
        {"memsim.walk_l2_mref_per_s", "Mref/s", "higher"},
        {"memsim.walk_llc_mref_per_s", "Mref/s", "higher"},
        {"memsim.walk_mcdram_mref_per_s", "Mref/s", "higher"},
        {"memsim.replay_s", "s", "lower"},
        {"memsim.replays", "count", "lower"},
        {"memsim.refs_m", "Mref", "lower"},
        {"memsim.replay_mref_per_s", "Mref/s", "higher"},
        {"memsim.sim_hit_ratio", "ratio", "higher"},
        {"io.trace_decode_mref_per_s", "Mref/s", "higher"},
        {"io.trace_bytes_per_ref", "B", "lower"},
        {"io.trace_write_s", "s", "lower"},
        {"io.json_dump_s", "s", "lower"},
        {"io.json_parse_s", "s", "lower"},
        {"model.profile_s", "s", "lower"},
        {"model.evaluate_s", "s", "lower"},
        {"model.evals", "count", "lower"},
        {"study.machine_evals", "count", "lower"},
        {"study.parallel_efficiency", "ratio", "higher"},
        {"study.measure_s", "s", "lower"},
        {"study.evaluate_us", "us", "lower"},
        {"study.candidates_generated", "count", "lower"},
        {"study.candidates_evaluated", "count", "higher"},
        {"study.dedup_ratio", "ratio", "lower"},
        {"study.memo_hit_ratio", "ratio", "higher"},
        {"study.frontier_points", "count", "higher"},
        {"cli.self_s", "s", "lower"},
        {"bench.trace_overhead_s", "s", "lower"},
        {"bench.hw_threads", "count", "higher"},
        {"bench.avx2", "bool", "higher"},
    };
    for (const auto& row : study::table4()) {
      v.push_back({"study.log_err." + row.abbrev, "ln", "lower"});
    }
    return v;
  }();
  return m;
}

}  // namespace fprbench
