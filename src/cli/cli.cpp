#include "cli/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <variant>

#include "arch/machines.hpp"
#include "arch/variant.hpp"
#include "common/execution_context.hpp"
#include "common/table.hpp"
#include "counters/op_tally.hpp"
#include "io/explore_json.hpp"
#include "io/pareto_json.hpp"
#include "io/study_json.hpp"
#include "io/trace_format.hpp"
#include "io/trace_replay.hpp"
#include "kernels/kernel.hpp"
#include "memsim/trace_source.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"
#include "model/roofline.hpp"
#include "study/explore.hpp"
#include "study/figures.hpp"
#include "study/pareto.hpp"
#include "study/methodology.hpp"
#include "study/study_engine.hpp"

namespace fpr::cli {
namespace {

/// A bad command line: exits kExitUsage with the message and the
/// command's usage.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// An input file that is missing, unreadable or malformed: exits
/// kExitBadInput with the message, as every io::TraceFormatError does.
struct BadInput : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Every value an `fpr` command reads, at the `fpr` defaults. The
/// measurement pass is the MeasureConfig base, handed whole to the
/// engines; the fields below belong to the commands named above them.
struct RunOptions : study::MeasureConfig {
  RunOptions() { jobs = 0; }  // all hardware; the engines default to 1
  bool csv = false;
  std::string out;      // results JSON destination ("-" = stdout)
  bool golden = false;  // study, explore
  // run
  int repeats = 3;
  bool auto_threads = false;
  // study
  bool no_sweep = false;
  bool timing = false;
  // memsim, trace, trace-record
  unsigned scale_shift = model::kDefaultScaleShift;
  std::vector<std::string> machines;  // empty = all (trace-record: KNL)
  std::uint64_t warmup = 0;           // trace-record: --refs unless given
  // trace-dump
  std::uint64_t limit = 0;  // 0 = all
  // explore, pareto
  std::string base = "KNL";
  std::vector<std::string> variants;  // explore; empty = built-in grid
  double budget_area = 1.0;
  double budget_tdp = 1.0;
  std::vector<std::string> objectives;  // empty = time,energy,site
  unsigned rounds = 3;
  unsigned explorers = 16;
  unsigned max_depth = 4;
  std::uint64_t search_seed = 2019;
  // diff
  double tolerance = 0.0;
  std::vector<std::string> positional;  // the command's files
  std::set<std::string_view> given;     // option spellings seen
};

/// The RunOptions field an option writes; its type selects the parser.
using Field = std::variant<bool RunOptions::*, int RunOptions::*,
                           unsigned RunOptions::*, std::uint64_t RunOptions::*,
                           double RunOptions::*, std::string RunOptions::*,
                           std::vector<std::string> RunOptions::*>;

/// One option spelling; `arg` is its value placeholder ("" = a flag).
/// Numbers must be > 0 when `positive`, and int/unsigned ones at most
/// `max` (which also caps worker counts before anything sizes per-worker
/// state from them). Lists append, so list options repeat.
struct Option {
  std::string_view name;
  std::string_view arg;
  std::string_view help;
  Field field;
  bool positive = false;
  unsigned max = 4096;
};

constexpr Option kOptions[] = {
    {"--kernel", "A[,B,...]",
     "kernel abbreviations to run (default: all; repeatable, "
     "comma-separated; trace-record: exactly one)",
     &RunOptions::kernels},
    {"--scale", "S", "input scale multiplier, > 0 (default 0.3)",
     &RunOptions::scale, true},
    {"--threads", "N",
     "worker threads, 0 = all hardware (default 0): each kernel run's "
     "pool, and the pool memsim and trace fan their replays over",
     &RunOptions::threads},
    {"--repeats", "R", "trials per kernel, fastest kept (default 3)",
     &RunOptions::repeats, true},
    {"--seed", "N", "PRNG seed for synthetic inputs (default 42)",
     &RunOptions::seed},
    {"--auto-threads", "",
     "pick threads per kernel via the step-2 parallelism search "
     "(overrides --threads)",
     &RunOptions::auto_threads},
    {"--trace-refs", "N", "cache-sim trace length, > 0 (default 400000)",
     &RunOptions::trace_refs, true},
    {"--refs", "N",
     "trace references per replay, > 0 (memsim: default 400000; trace: "
     "default every record after the warmup prefix; trace-record: measured "
     "records to write, default 400000)",
     &RunOptions::trace_refs, true},
    {"--jobs", "N",
     "engine workers for the per-machine stages and variant scoring (0 = "
     "all hardware, default 0; never changes the results, only the wall "
     "time)",
     &RunOptions::jobs},
    {"--kernel-jobs", "K",
     "concurrent instrumented kernel runs, each in its own execution "
     "context with a private --threads worker pool (0 = all hardware, "
     "default 1; never changes the results)",
     &RunOptions::kernel_jobs},
    {"--no-sweep", "", "skip the Fig. 6 frequency sweep",
     &RunOptions::no_sweep},
    {"--timing", "",
     "keep wall-clock host_seconds in the output (default: zeroed so JSON "
     "is byte-stable)",
     &RunOptions::timing},
    {"--golden", "",
     "run the exact golden-snapshot configuration; options it fixes (all "
     "but --jobs, --kernel-jobs, --out and --csv) are usage errors",
     &RunOptions::golden},
    {"--scale-shift", "S",
     "capacity scale-down exponent: footprints and cache sizes shrink by "
     "2^S (default 8, max 30)",
     &RunOptions::scale_shift, false, 30},
    {"--machine", "M[,M...]",
     "replay only on the named Table I machines (default: all; "
     "trace-record: the one machine to record for, default KNL)",
     &RunOptions::machines},
    {"--warmup", "N",
     "records replayed uncounted before measuring starts (trace: default 0; "
     "files from trace-record carry their own prefix; trace-record: records "
     "written ahead of the measured ones, default --refs)",
     &RunOptions::warmup},
    {"--limit", "N", "print at most N records (default 0 = all)",
     &RunOptions::limit},
    {"--base", "M", "base machine short name: KNL, KNM, or BDW (default KNL)",
     &RunOptions::base},
    {"--variants", "S[,S...]",
     "variant specs to derive from the base (default: the built-in grid). "
     "A spec composes transforms with '+': name or name=FACTOR, e.g. "
     "halve-fp64+dram-bw=1.5. Transforms: halve-fp64, drop-fp64-vec, "
     "widen-fp32[=K], dram-bw[=F], mcdram-bw[=F], mcdram-cap[=F], "
     "cores[=F], tdp[=F]; factors scale the base value",
     &RunOptions::variants},
    {"--budget-area", "F",
     "max die-area ratio vs the base, > 0 (default 1.0: no bigger than the "
     "purchased silicon)",
     &RunOptions::budget_area, true},
    {"--budget-tdp", "F", "max TDP ratio vs the base, > 0 (default 1.0)",
     &RunOptions::budget_tdp, true},
    {"--objectives", "A[,B..]",
     "frontier objectives, a subset of time, energy, site (default "
     "time,energy,site)",
     &RunOptions::objectives},
    {"--rounds", "R", "expansion rounds after the seed batch (default 3)",
     &RunOptions::rounds},
    {"--explorers", "E",
     "seeded random walks proposed per round (default 16)",
     &RunOptions::explorers},
    {"--max-depth", "D",
     "max transforms composed per candidate, > 0 (default 4)",
     &RunOptions::max_depth, true},
    {"--search-seed", "N",
     "explorer-walk seed (default 2019; results are identical for every "
     "--jobs at a fixed seed)",
     &RunOptions::search_seed},
    {"--out", "FILE",
     "write the results JSON to FILE ('-' = stdout, suppressing the "
     "tables)",
     &RunOptions::out},
    {"--tolerance", "T",
     "max relative delta accepted per metric (default 0; exit 1 if any "
     "metric exceeds it)",
     &RunOptions::tolerance},
    {"--csv", "", "emit CSV instead of aligned tables", &RunOptions::csv},
};

const Option* find_option(std::string_view name) {
  for (const auto& o : kOptions) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

/// The space-separated words of `s`.
std::vector<std::string_view> words(std::string_view s) {
  std::vector<std::string_view> out;
  for (std::size_t i = 0; i < s.size();) {
    const std::size_t end = std::min(s.find(' ', i), s.size());
    if (end > i) out.push_back(s.substr(i, end - i));
    i = end + 1;
  }
  return out;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// `text` as a number for option `o`: all of it must parse, and pass
/// `o`'s checks. Integers reject any '-', which stoull would wrap into
/// ~1.8e19.
template <class T>
T parse_number(const Option& o, const std::string& text) {
  const std::string name(o.name);
  T v{};
  std::size_t used = 0;
  try {
    if constexpr (std::is_floating_point_v<T>) {
      v = std::stod(text, &used);
    } else if (text.find('-') == std::string::npos) {
      const unsigned long long u = std::stoull(text, &used);
      if (!std::is_same_v<T, std::uint64_t> && u > o.max) {
        throw UsageError(name + " must be <= " + std::to_string(o.max));
      }
      v = static_cast<T>(u);
    }
  } catch (const std::logic_error&) {  // what std::sto* throw
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    throw UsageError("invalid value '" + text + "' for " + name);
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v) || v < 0.0 || (o.positive && v == 0.0)) {
      throw UsageError(name + (o.positive ? " must be finite and > 0"
                                          : " must be finite and >= 0"));
    }
  } else if (o.positive && v == 0) {
    throw UsageError(name + " must be > 0");
  }
  return v;
}

/// Stores `text` (ignored for flags) into `o`'s field of `opt`.
void set_option(const Option& o, const std::string& text, RunOptions& opt) {
  std::visit(
      [&](auto field) {
        auto& dst = opt.*field;
        using T = std::remove_reference_t<decltype(dst)>;
        if constexpr (std::is_same_v<T, bool>) {
          dst = true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (text.empty()) {
            throw UsageError(std::string(o.name) + " needs a non-empty value");
          }
          dst = text;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          const auto parts = split_csv(text);
          if (parts.empty()) {
            throw UsageError(std::string(o.name) + " needs a value");
          }
          dst.insert(dst.end(), parts.begin(), parts.end());
        } else {
          dst = parse_number<T>(o, text);
        }
      },
      o.field);
}

/// --golden runs a fixed configuration, so any of the `fixed` spellings
/// on the same command line would be silently ignored: a usage error.
void reject_golden_overrides(const RunOptions& opt, std::string_view fixed) {
  for (const auto name : words(fixed)) {
    if (opt.given.count(name) != 0) {
      throw UsageError("--golden fixes the snapshot configuration and "
                       "cannot be combined with " +
                       std::string(name));
    }
  }
}

void print(const TextTable& t, bool csv, std::ostream& out) {
  if (csv) {
    t.print_csv(out);
  } else {
    t.print(out);
  }
  out << "\n";
}

/// Writes a results document to --out: stdout for '-', else the file.
void write_out(const RunOptions& opt, const io::Json& doc, std::ostream& out,
               std::ostream& err) {
  if (opt.out == "-") {
    out << io::dump(doc) << "\n";
  } else {
    io::save_file(opt.out, doc);
    err << "[fpr] wrote " << opt.out << "\n";
  }
}

/// Results file `path`, converted by `from_json`. A missing or
/// unreadable file, and any io::JsonError while reading or converting it
/// (not JSON, a missing key, another format), is bad input naming the
/// file.
template <class FromJson>
auto load_results(const std::string& path, FromJson from_json) {
  if (!std::ifstream(path, std::ios::binary)) {
    throw BadInput("cannot read input file '" + path +
                   "': missing or unreadable");
  }
  try {
    return from_json(io::load_file(path));
  } catch (const io::JsonError& e) {
    throw BadInput("malformed results file '" + path + "': " + e.what());
  }
}

int cmd_list(const RunOptions& opt, std::ostream& out, std::ostream&) {
  TextTable t({"#", "Abbrev", "Name", "Suite", "Domain", "Pattern",
               "Language", "Paper input"});
  long long n = 0;
  for (const auto& k : kernels::make_all()) {
    const auto& info = k->info();
    t.row()
        .integer(++n)
        .cell(info.abbrev)
        .cell(info.name)
        .cell(to_string(info.suite))
        .cell(to_string(info.domain))
        .cell(to_string(info.pattern))
        .cell(info.language)
        .cell(info.paper_input)
        .done();
  }
  print(t, opt.csv, out);
  return kExitOk;
}

int cmd_tables(const RunOptions& opt, std::ostream& out, std::ostream&) {
  print(study::table1_hardware(), opt.csv, out);
  print(study::table2_categorization(), opt.csv, out);
  print(study::table3_metrics(), opt.csv, out);
  return kExitOk;
}

/// Fig. 1-style operation-mix row for one measured kernel.
void add_opmix_row(TextTable& t, const kernels::WorkloadMeasurement& m) {
  const auto& ops = m.ops;
  const double giga = 1e9;
  t.row()
      .cell(m.name)
      .num(static_cast<double>(ops.fp64) / giga, 1)
      .num(static_cast<double>(ops.fp32) / giga, 1)
      .num(static_cast<double>(ops.int_ops) / giga, 1)
      .num(100.0 * ops.fp64_share(), 1)
      .num(100.0 * ops.fp32_share(), 1)
      .num(100.0 * ops.int_share(), 1)
      .num(static_cast<double>(ops.bytes_read + ops.bytes_written) / giga, 1)
      .num(m.host_seconds, 4)
      .cell(m.verified ? "yes" : "NO")
      .done();
}

/// Per-machine model projection (Fig. 2/Table IV-style metrics) plus the
/// kernel's placement on each machine's roofline (Fig. 5 coordinates).
/// One row per (kernel, machine) appended to the shared table. The
/// hierarchy replays memoize through `cache` so repeated projections of
/// identical sliced specs simulate once per command.
void add_projection_rows(TextTable& t, const std::string& abbrev,
                         const kernels::WorkloadMeasurement& meas,
                         memsim::SimCache* cache) {
  for (const auto& cpu : arch::all_machines()) {
    const auto mem =
        model::profile_memory(cpu, meas, model::kDefaultTraceRefs,
                              model::kDefaultScaleShift, cache);
    const auto ev = model::evaluate_at_turbo(cpu, meas, mem);
    const auto rp = model::roofline_point(cpu, meas, mem, ev);
    t.row()
        .cell(abbrev)
        .cell(cpu.short_name)
        .cell(std::string(model::to_string(ev.bound)))
        .num(ev.seconds, 3)
        .num(ev.gflops, 1)
        .num(ev.pct_of_peak, 1)
        .num(ev.mem_throughput_gbs, 1)
        .num(rp.arithmetic_intensity, 3)
        .num(rp.attainable_gflops, 1)
        .cell(rp.memory_side ? "memory" : "compute")
        .done();
  }
}

/// Validate a kernel selection against the registry; returns the full
/// list when `requested` is empty. Unknown abbreviations, and repeated
/// ones (which would run twice or be dropped), are usage errors.
std::vector<std::string> resolve_kernels(
    const std::vector<std::string>& requested) {
  const auto known = kernels::all_abbrevs();
  auto selection = requested.empty() ? known : requested;
  for (auto k = selection.begin(); k != selection.end(); ++k) {
    if (std::find(known.begin(), known.end(), *k) == known.end()) {
      std::string names;
      for (const auto& n : known) names += (names.empty() ? "" : ",") + n;
      throw UsageError("unknown kernel '" + *k + "' (known: " + names + ")");
    }
    if (std::find(selection.begin(), k, *k) != k) {
      throw UsageError("kernel '" + *k + "' given more than once in --kernel");
    }
  }
  return selection;
}

/// The command line's measurement pass, --kernel checked and resolved.
study::MeasureConfig measure_config(const RunOptions& opt) {
  study::MeasureConfig m = opt;
  m.kernels = resolve_kernels(opt.kernels);
  return m;
}

/// The Table I machine `name`, given in `option`; an unknown name is a
/// usage error.
arch::CpuSpec table1_machine(const std::string& name,
                             std::string_view option) {
  auto cpu = arch::find_machine(name);
  if (!cpu) {
    throw UsageError("unknown machine '" + name + "' for " +
                     std::string(option) +
                     " (expected a Table I short name)");
  }
  return std::move(*cpu);
}

int cmd_run(const RunOptions& opt, std::ostream& out, std::ostream& err) {
  const auto selection = resolve_kernels(opt.kernels);

  err << "[fpr] running " << selection.size() << " kernel(s) at scale "
      << opt.scale << ", " << opt.repeats << " repeat(s)\n";
  // In CSV mode stdout must stay machine-parsable: section headings are
  // diagnostics and move to the error stream.
  std::ostream& heading = opt.csv ? err : out;

  auto rc = opt.run_config();

  TextTable opmix({"Kernel", "FP64[Gop]", "FP32[Gop]", "INT[Gop]", "FP64%",
                   "FP32%", "INT%", "Moved[GB]", "Assay[s]", "Verified"});
  TextTable search({"Kernel", "Threads tried (t:sec)", "Best threads",
                    "Best[s]"});
  TextTable projection({"Kernel", "Machine", "Bound", "t2sol[s]", "Gflop/s",
                        "%peak", "Mem[GB/s]", "AI[f/B]", "Roof[Gflop/s]",
                        "Side"});
  memsim::SimCache sim_cache;
  for (const auto& abbrev : selection) {
    const auto kernel = kernels::make(abbrev);
    if (opt.auto_threads) {
      const auto choice =
          study::find_best_parallelism(*kernel, opt.scale, opt.repeats);
      std::string tried;
      for (const auto& [t, s] : choice.tried) {
        if (!tried.empty()) tried += ' ';
        tried += std::to_string(t);
        tried += ':';
        tried += fmt_double(s, 4);
      }
      search.row()
          .cell(abbrev)
          .cell(tried)
          .integer(choice.threads)
          .num(choice.best_seconds, 4)
          .done();
      rc.threads = choice.threads;
    }
    const auto run = study::performance_run(*kernel, rc, opt.repeats);
    add_opmix_row(opmix, run.best_meas);
    add_projection_rows(projection, abbrev, run.best_meas, &sim_cache);
  }

  if (opt.auto_threads) {
    heading << "Parallelism search (methodology step 2):\n";
    print(search, opt.csv, out);
  }

  heading << "Operation mix (paper-scale counts, fastest of " << opt.repeats
          << " run(s)):\n";
  print(opmix, opt.csv, out);
  heading << "Machine projection + roofline placement:\n";
  print(projection, opt.csv, out);
  return kExitOk;
}

int cmd_study(const RunOptions& opt, std::ostream& out, std::ostream& err) {
  study::StudyConfig cfg;
  if (opt.golden) {
    reject_golden_overrides(
        opt, "--kernel --scale --threads --seed --trace-refs --timing "
             "--no-sweep");
    cfg = study::golden_config();
  } else {
    static_cast<study::MeasureConfig&>(cfg) = measure_config(opt);
    cfg.freq_sweep = !opt.no_sweep;
    cfg.canonical_timing = !opt.timing;
  }
  // Job counts never change the results, so they stay user-controlled
  // even under --golden.
  cfg.jobs = opt.jobs;
  cfg.kernel_jobs = opt.kernel_jobs;

  err << "[fpr] study: " << cfg.kernels.size() << " kernel(s) at scale "
      << cfg.scale << ", jobs=" << cfg.jobs << ", kernel-jobs="
      << cfg.kernel_jobs << " (0 = all hardware)\n";

  study::StudyEngine engine(cfg);
  const auto results = engine.run();
  const bool json_to_stdout = opt.out == "-";
  std::ostream& heading = (opt.csv || json_to_stdout) ? err : out;

  if (!json_to_stdout) {
    TextTable summary({"Kernel", "Machine", "Bound", "t2sol[s]", "Gflop/s",
                       "%peak", "Mem[GB/s]"});
    for (const auto& k : results.kernels) {
      for (const auto& m : k.machines) {
        summary.row()
            .cell(k.info.abbrev)
            .cell(m.cpu.short_name)
            .cell(std::string(model::to_string(m.perf.bound)))
            .num(m.perf.seconds, 3)
            .num(m.perf.gflops, 1)
            .num(m.perf.pct_of_peak, 1)
            .num(m.perf.mem_throughput_gbs, 1)
            .done();
      }
    }
    heading << "Study summary (" << engine.stats().kernel_runs
            << " kernel run(s), " << engine.stats().machine_evals
            << " machine eval(s)):\n";
    print(summary, opt.csv, out);
  }

  if (!opt.out.empty()) write_out(opt, io::to_json(results), out, err);
  return kExitOk;
}

/// `fpr explore`: the Sec. VII what-if sweep — derive variants of a base
/// machine, evaluate every kernel on each, and score the variants
/// against the base (time/energy geomeans, FP64 %-of-peak, the Fig. 7
/// site-weighted projection).
int cmd_explore(const RunOptions& opt, std::ostream& out, std::ostream& err) {
  study::ExploreConfig cfg;
  if (opt.golden) {
    reject_golden_overrides(
        opt, "--kernel --scale --threads --seed --trace-refs --base "
             "--variants");
    cfg = study::golden_explore_config();
  } else {
    static_cast<study::MeasureConfig&>(cfg) = measure_config(opt);
    const arch::CpuSpec base = table1_machine(opt.base, "--base");
    try {
      (void)study::explore_variants(base, opt.variants);
    } catch (const std::invalid_argument& e) {
      throw UsageError(std::string("invalid --variants: ") + e.what());
    }
    cfg.base = opt.base;
    cfg.variants = opt.variants;
  }
  // Job counts never change the results, so they stay user-controlled
  // even under --golden.
  cfg.jobs = opt.jobs;
  cfg.kernel_jobs = opt.kernel_jobs;

  err << "[fpr] explore: base " << cfg.base << ", "
      << (cfg.variants.empty() ? std::string("built-in variant grid")
                               : std::to_string(cfg.variants.size()) +
                                     " variant(s)")
      << ", " << cfg.kernels.size()
      << " kernel(s) (0 = all), jobs=" << cfg.jobs
      << ", kernel-jobs=" << cfg.kernel_jobs << "\n";

  study::ExploreEngine engine(cfg);
  const auto results = engine.run();
  const bool json_to_stdout = opt.out == "-";
  std::ostream& heading = (opt.csv || json_to_stdout) ? err : out;

  if (!json_to_stdout) {
    TextTable summary({"Variant", "Spec", "GeoT2sol", "GeoEnergy",
                       "FP64%peak", "Site%peak"});
    auto add_summary = [&](const study::VariantScore& v) {
      summary.row()
          .cell(v.name())
          .cell(v.variant.spec.empty() ? "(base)" : v.variant.spec)
          .num(v.geomean_time_ratio, 3)
          .num(v.geomean_energy_ratio, 3)
          .num(v.mean_fp64_pct_peak, 2)
          .num(v.site_pct_peak, 2)
          .done();
    };
    add_summary(results.baseline);
    for (const auto& v : results.variants) add_summary(v);
    heading << "Variant scorecard vs " << results.base
            << " (ratios < 1 = variant better; " << engine.stats().kernel_runs
            << " kernel run(s), " << engine.stats().machine_evals
            << " machine eval(s), " << engine.stats().sim_hits
            << " memoized replay(s)):\n";
    print(summary, opt.csv, out);

    TextTable detail({"Kernel", "Variant", "Bound", "t2sol[s]", "xBase",
                      "xBaseEnergy", "FP64%peak"});
    std::vector<const study::VariantScore*> all{&results.baseline};
    for (const auto& v : results.variants) all.push_back(&v);
    for (std::size_t ki = 0; ki < results.baseline.kernels.size(); ++ki) {
      for (const auto* v : all) {
        const auto& p = v->kernels[ki];
        detail.row()
            .cell(p.abbrev)
            .cell(v->name())
            .cell(std::string(model::to_string(p.perf.bound)))
            .num(p.perf.seconds, 3)
            .num(p.time_ratio, 3)
            .num(p.energy_ratio, 3)
            .num(p.fp64_pct_peak, 2)
            .done();
      }
    }
    heading << "Per-kernel projection:\n";
    print(detail, opt.csv, out);
  }

  if (!opt.out.empty()) write_out(opt, io::to_json(results), out, err);
  return kExitOk;
}

/// `fpr pareto`: the design-space search — compose derive_variant
/// transforms under the area/TDP budget box and print the non-dominated
/// frontier over the selected objectives.
int cmd_pareto(const RunOptions& opt, std::ostream& out, std::ostream& err) {
  study::ParetoConfig cfg;
  static_cast<study::MeasureConfig&>(cfg) = measure_config(opt);
  (void)table1_machine(opt.base, "--base");
  cfg.base = opt.base;
  cfg.search_seed = opt.search_seed;
  cfg.rounds = opt.rounds;
  cfg.explorers = opt.explorers;
  cfg.max_depth = opt.max_depth;
  cfg.budget.max_area_ratio = opt.budget_area;
  cfg.budget.max_tdp_ratio = opt.budget_tdp;
  if (!opt.objectives.empty()) {
    cfg.objectives.clear();
    for (auto name = opt.objectives.begin(); name != opt.objectives.end();
         ++name) {
      try {
        cfg.objectives.push_back(study::objective_from_string(*name));
      } catch (const std::invalid_argument& e) {
        throw UsageError(e.what());
      }
      if (std::find(opt.objectives.begin(), name, *name) != name) {
        throw UsageError("objective '" + *name +
                         "' given more than once in --objectives");
      }
    }
  }

  err << "[fpr] pareto: base " << cfg.base << ", budget area<="
      << cfg.budget.max_area_ratio << " tdp<=" << cfg.budget.max_tdp_ratio
      << ", " << cfg.rounds << " round(s), depth<=" << cfg.max_depth
      << ", jobs=" << cfg.jobs << ", kernel-jobs=" << cfg.kernel_jobs << "\n";

  study::ParetoEngine engine(cfg);
  const auto results = engine.run();
  const auto& st = engine.stats();
  const bool json_to_stdout = opt.out == "-";
  std::ostream& heading = (opt.csv || json_to_stdout) ? err : out;

  if (!json_to_stdout) {
    TextTable frontier({"Variant", "Spec", "GeoT2sol", "GeoEnergy",
                        "Site%peak", "Area", "TDP"});
    for (const auto& p : results.frontier) {
      frontier.row()
          .cell(p.name())
          .cell(p.spec().empty() ? "(base)" : p.spec())
          .num(p.score.geomean_time_ratio, 3)
          .num(p.score.geomean_energy_ratio, 3)
          .num(p.score.site_pct_peak, 2)
          .num(p.budget.area_ratio, 3)
          .num(p.budget.tdp_ratio, 3)
          .done();
    }
    heading << "Pareto frontier vs " << results.base
            << " (ratios < 1 = candidate better; " << results.frontier.size()
            << " point(s)):\n";
    print(frontier, opt.csv, out);
  }

  err << "[fpr] pareto search: " << st.generated << " candidate(s), "
      << st.evaluated << " evaluated, " << st.deduped << " duplicate(s), "
      << st.over_budget << " over budget, " << st.invalid << " invalid, "
      << st.rounds << " round(s); " << st.evaluator.memo_hits
      << " profile-memo hit(s), " << st.evaluator.memo_misses
      << " miss(es), " << st.evaluator.replays << " replay(s), "
      << st.evaluator.sibling_fills << " sibling fill(s)\n";

  if (!opt.out.empty()) write_out(opt, io::to_json(results), out, err);
  return kExitOk;
}

/// One memsim/trace table row: the per-level hit rates of `res`, a
/// replay of `label` (kernel or trace) on `cpu`.
void add_hit_rate_row(TextTable& t, const std::string& label,
                      const arch::CpuSpec& cpu,
                      const memsim::HierarchyResult& res) {
  const std::string last = cpu.has_mcdram() ? "MCDRAM$" : "LLC";
  t.row()
      .cell(label)
      .cell(cpu.short_name)
      .num(100.0 * res.hit_rate("L1"), 2)
      .num(100.0 * res.hit_rate("L2"), 2)
      .cell(last)
      .num(100.0 * res.hit_rate(last), 2)
      .num(100.0 * (1.0 - res.served_at_or_above("L2")), 2)
      .num(100.0 * res.dram_fraction(), 2)
      .done();
}

/// `fpr memsim`: expose the hierarchy simulation directly — one row per
/// (kernel, machine) with the per-level hit rates the model consumes
/// (the stand-in for the paper's PCM counter readings). Kernels run once
/// (instrumented, at --scale) to publish their access-pattern specs;
/// then the (kernel, machine) replays fan out over the --threads pool,
/// each through the command's SimCache into its own slot.
int cmd_memsim(const RunOptions& opt, std::ostream& out, std::ostream& err) {
  const auto selection = resolve_kernels(opt.kernels);

  err << "[fpr] memsim: " << selection.size() << " kernel(s) at scale "
      << opt.scale << ", refs=" << opt.trace_refs << ", scale-shift="
      << opt.scale_shift << "\n";

  ExecutionContext ctx(opt.threads);
  memsim::SimCache cache;

  // Each kernel run already spreads over the pool, so kernels run one
  // after another.
  std::vector<memsim::AccessPatternSpec> specs;
  for (const auto& abbrev : selection) {
    specs.push_back(kernels::make(abbrev)->run(ctx, opt.run_config()).access);
  }
  const auto machines = arch::all_machines();
  std::vector<memsim::HierarchyResult> results(specs.size() * machines.size());
  ctx.for_each(results.size(), [&](std::size_t u) {
    const auto& cpu = machines[u % machines.size()];
    const auto sliced =
        model::per_core_slice(specs[u / machines.size()], cpu.cores);
    results[u] = memsim::simulate_pattern_cached(
        &cache, cpu, sliced, opt.trace_refs, model::kProfileSeed,
        opt.scale_shift);
  });

  TextTable t({"Kernel", "Machine", "L1h%", "L2h%", "Last", "LLh%",
               "Offchip%", "DRAM%"});
  for (std::size_t u = 0; u < results.size(); ++u) {
    add_hit_rate_row(t, selection[u / machines.size()],
                     machines[u % machines.size()], results[u]);
  }

  std::ostream& heading = opt.csv ? err : out;
  heading << "Simulated per-level hit rates (" << opt.trace_refs
          << " refs, capacities/footprints scaled by 2^-" << opt.scale_shift
          << "):\n";
  print(t, opt.csv, out);
  const auto cs = cache.stats();
  err << "[fpr] memsim cache: " << cs.hits << " hit(s), " << cs.misses
      << " simulation(s)\n";
  return kExitOk;
}

std::string fmt_hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Basename of `path` without its extension — the table's "Trace" cell.
std::string trace_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name.resize(dot);
  return name.empty() ? path : name;
}

/// `fpr trace FILE`: replay a recorded fpr-trace binary through the
/// same hierarchy simulation `fpr memsim` uses and print the same
/// per-machine hit-rate columns (so rows are directly comparable:
/// `--csv` output matches memsim's minus the leading kernel/trace
/// cell). The per-machine replays fan out over the --threads pool, each
/// through the command's SimCache keyed by the trace's content digest.
int cmd_trace(const RunOptions& opt, std::ostream& out, std::ostream& err) {
  const std::string& path = opt.positional.front();

  // Resolve --machine names before touching the file: usage errors
  // should win over input errors.
  std::vector<arch::CpuSpec> machines;
  for (const auto& name : opt.machines) {
    for (const auto& m : machines) {
      if (m.short_name == name) {
        throw UsageError("machine '" + name +
                         "' given more than once in --machine");
      }
    }
    machines.push_back(table1_machine(name, "--machine"));
  }
  if (machines.empty()) machines = arch::all_machines();

  const io::TraceInfo info = io::read_trace_info(path);
  if (info.records <= opt.warmup) {
    throw UsageError("--warmup " + std::to_string(opt.warmup) +
                     " leaves no measurable records ('" + path + "' holds " +
                     std::to_string(info.records) + ")");
  }
  const std::uint64_t avail = info.records - opt.warmup;
  const std::uint64_t refs = opt.given.count("--refs") != 0
                                 ? std::min(opt.trace_refs, avail)
                                 : avail;

  err << "[fpr] trace: '" << path << "', " << info.records
      << " record(s), digest " << fmt_hex64(info.digest) << ", refs=" << refs
      << ", warmup=" << opt.warmup << ", scale-shift=" << opt.scale_shift
      << "\n";

  ExecutionContext ctx(opt.threads);
  memsim::SimCache cache;

  // One replay per machine, fanned out over the pool into per-machine
  // slots; the machines are distinct, so every slot has its own memo key.
  std::vector<memsim::HierarchyResult> results(machines.size());
  ctx.for_each(machines.size(), [&](std::size_t i) {
    results[i] = io::replay_trace_cached(&cache, machines[i], path, refs,
                                         opt.warmup, opt.scale_shift);
  });

  const std::string stem = trace_stem(path);
  const bool json_to_stdout = opt.out == "-";
  TextTable t({"Trace", "Machine", "L1h%", "L2h%", "Last", "LLh%",
               "Offchip%", "DRAM%"});
  io::Json machines_json = io::Json::array();
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const auto& cpu = machines[i];
    const auto& res = results[i];
    add_hit_rate_row(t, stem, cpu, res);
    if (opt.out.empty()) continue;
    const auto mem = model::profile_trace(cpu, res, info.working_set_bytes());
    io::Json m = io::Json::object();
    m.set("machine", std::string(cpu.short_name));
    io::Json levels = io::Json::array();
    for (const auto& l : res.levels) {
      io::Json e = io::Json::object();
      e.set("name", l.name);
      e.set("hits", l.stats.hits);
      e.set("misses", l.stats.misses);
      e.set("writebacks", l.stats.writebacks);
      levels.push(std::move(e));
    }
    m.set("levels", std::move(levels));
    m.set("mem", io::to_json(mem));
    machines_json.push(std::move(m));
  }

  std::ostream& heading = (opt.csv || json_to_stdout) ? err : out;
  heading << "Simulated per-level hit rates for '" << stem << "' (" << refs
          << " measured refs, capacities scaled by 2^-" << opt.scale_shift
          << "):\n";
  if (!json_to_stdout) print(t, opt.csv, out);

  if (!opt.out.empty()) {
    io::Json doc = io::Json::object();
    doc.set("format", "fpr-trace-profile");
    doc.set("version", std::uint64_t{1});
    io::Json tj = io::Json::object();
    tj.set("file", path);
    tj.set("records", info.records);
    tj.set("digest", fmt_hex64(info.digest));
    tj.set("refs", refs);
    tj.set("warmup", opt.warmup);
    tj.set("scale_shift", opt.scale_shift);
    tj.set("touched_lines", info.touched_lines);
    tj.set("working_set_bytes", info.working_set_bytes());
    doc.set("trace", std::move(tj));
    doc.set("machines", std::move(machines_json));
    write_out(opt, doc, out, err);
  }
  const auto cs = cache.stats();
  err << "[fpr] trace cache: " << cs.hits << " hit(s), " << cs.misses
      << " replay(s)\n";
  return kExitOk;
}

/// `fpr trace-record FILE`: the reference stream `fpr memsim` replays
/// for one kernel on one machine (the kernel's measured access spec,
/// sliced per core and capacity-scaled, through the synthetic generator
/// at the profiling seed) behind a warmup prefix of the same stream, so
/// `fpr trace FILE --machine M --warmup W` reproduces the memsim row bit
/// for bit.
int cmd_trace_record(const RunOptions& opt, std::ostream&,
                     std::ostream& err) {
  const std::string& path = opt.positional.front();
  if (opt.kernels.size() != 1) {
    throw UsageError("trace-record needs exactly one kernel in --kernel");
  }
  const std::string kernel = resolve_kernels(opt.kernels).front();
  if (opt.machines.size() > 1) {
    throw UsageError("trace-record takes at most one machine in --machine");
  }
  const auto cpu = table1_machine(
      opt.machines.empty() ? "KNL" : opt.machines.front(), "--machine");
  const std::uint64_t refs = opt.trace_refs;
  const std::uint64_t warmup =
      opt.given.count("--warmup") != 0 ? opt.warmup : refs;
  if (warmup > std::numeric_limits<std::uint64_t>::max() - refs) {
    throw UsageError("--warmup plus --refs exceeds 2^64 records");
  }

  const auto meas = kernels::make(kernel)->run(opt.run_config());
  const auto scaled = memsim::scale_spec(
      model::per_core_slice(meas.access, cpu.cores), opt.scale_shift);
  io::record_trace(path, scaled, model::kProfileSeed, warmup + refs);
  err << "[fpr] wrote '" << path << "': " << warmup + refs << " record(s) ("
      << warmup << " warmup + " << refs << " measured), kernel " << kernel
      << " on " << cpu.short_name << ", scale-shift " << opt.scale_shift
      << "\n[fpr] replay with: fpr trace " << path << " --machine "
      << cpu.short_name << " --warmup " << warmup << " --scale-shift "
      << opt.scale_shift << "\n";
  return kExitOk;
}

/// `fpr trace-convert IN.txt OUT.fpt`: a text trace to an fpr-trace file
/// (io::convert_text_trace). A malformed line leaves no OUT.fpt.
int cmd_trace_convert(const RunOptions& opt, std::ostream&,
                      std::ostream& err) {
  const std::string& in = opt.positional[0];
  const std::string& path = opt.positional[1];
  std::ifstream text(in);
  if (!text) {
    throw BadInput("cannot read input file '" + in +
                   "': missing or unreadable");
  }
  std::uint64_t records = 0;
  const std::uint64_t digest = io::write_trace(
      path, [&](io::TraceWriter& w) {
        records = io::convert_text_trace(text, w);
      });
  err << "[fpr] wrote '" << path << "': " << records << " record(s), digest "
      << fmt_hex64(digest) << "\n";
  return kExitOk;
}

/// `fpr trace-dump FILE`: the records of an fpr-trace file as the text
/// form trace-convert reads, so dump | convert round-trips the file.
int cmd_trace_dump(const RunOptions& opt, std::ostream& out,
                   std::ostream& err) {
  io::TraceReader reader(opt.positional.front());
  const std::uint64_t dumped = io::dump_trace_text(reader, out, opt.limit);
  const std::uint64_t records = reader.info().records;
  if (opt.limit > 0 && dumped == opt.limit && records > opt.limit) {
    err << "[fpr] ... " << records - opt.limit << " more record(s)\n";
  }
  return kExitOk;
}

/// `fpr trace-info FILE`: the header of an fpr-trace file.
int cmd_trace_info(const RunOptions& opt, std::ostream& out, std::ostream&) {
  const std::string& path = opt.positional.front();
  const auto info = io::read_trace_info(path);
  out << "file:           " << path << "\n"
      << "records:        " << info.records << "\n"
      << "digest:         " << fmt_hex64(info.digest) << "\n"
      << "chunk_records:  " << info.chunk_records << "\n"
      << "addr_range:     [0x" << std::hex << info.min_addr << ", 0x"
      << info.max_addr << std::dec << "]\n"
      << "touched_lines:  " << info.touched_lines << "\n"
      << "working_set:    " << info.working_set_bytes() << " bytes\n";
  return kExitOk;
}

/// Formats diff values across the wildly varying metric magnitudes.
std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Accumulates per-metric comparisons between two results files.
class DiffReport {
 public:
  explicit DiffReport(double tolerance) : tolerance_(tolerance) {}

  void metric(const std::string& kernel, const std::string& machine,
              const std::string& name, double a, double b) {
    ++compared_;
    // Non-finite values never hide behind NaN comparisons: NaN-vs-NaN
    // and equal infinities count as identical, anything else is an
    // infinite delta that fails every tolerance.
    double delta;
    if (std::isnan(a) || std::isnan(b)) {
      delta = std::isnan(a) && std::isnan(b)
                  ? 0.0
                  : std::numeric_limits<double>::infinity();
    } else if (std::isinf(a) || std::isinf(b)) {
      delta = a == b ? 0.0 : std::numeric_limits<double>::infinity();
    } else {
      const double denom = std::max(std::abs(a), std::abs(b));
      delta = denom == 0.0 ? 0.0 : std::abs(a - b) / denom;
    }
    max_delta_ = std::max(max_delta_, delta);
    if (delta > tolerance_) {
      ++exceeding_;
      table_.row()
          .cell(kernel)
          .cell(machine)
          .cell(name)
          .cell(fmt_g(a))
          .cell(fmt_g(b))
          .cell(fmt_g(delta))
          .done();
    }
  }

  void mismatch(const std::string& kernel, const std::string& machine,
                const std::string& name, const std::string& a,
                const std::string& b) {
    ++compared_;
    if (a == b) return;
    ++exceeding_;
    table_.row()
        .cell(kernel)
        .cell(machine)
        .cell(name)
        .cell(a)
        .cell(b)
        .cell("-")
        .done();
  }

  [[nodiscard]] bool ok() const { return exceeding_ == 0; }
  [[nodiscard]] const TextTable& table() const { return table_; }
  [[nodiscard]] std::size_t compared() const { return compared_; }
  [[nodiscard]] std::size_t exceeding() const { return exceeding_; }
  [[nodiscard]] double max_delta() const { return max_delta_; }

 private:
  double tolerance_;
  TextTable table_{{"Kernel", "Machine", "Metric", "A", "B", "RelDelta"}};
  std::size_t compared_ = 0;
  std::size_t exceeding_ = 0;
  double max_delta_ = 0.0;
};

/// What an array element is matched by: the identity key it was found
/// under and its value, or "" and the element's index "[i]".
using Label = std::pair<std::string_view, std::string>;

/// Where a compared value sits in a results file. An array element
/// labelled `abbrev` names the Kernel column and one labelled `machine` or
/// `name` the Machine column; `path`, the Metric column, is the JSON path
/// below the innermost such element.
struct DiffWhere {
  std::string kernel = "-";
  std::string machine = "-";
  std::string path;
  bool labelled = false;  // at a labelled element: `path` is its array's

  [[nodiscard]] DiffWhere member(const std::string& key) const {
    DiffWhere w = *this;
    if (w.labelled) w.path.clear();
    w.labelled = false;
    if (!w.path.empty()) w.path += '.';
    w.path += key;
    return w;
  }

  [[nodiscard]] DiffWhere element(const Label& label) const {
    DiffWhere w = *this;
    w.labelled = !label.first.empty();
    if (label.first == "abbrev") {
      w.kernel = label.second;
    } else if (w.labelled) {
      w.machine = label.second;
    } else {
      w.path += label.second;
    }
    return w;
  }
};

/// Element `i` of an array is matched by its own `abbrev`, `machine` or
/// `name` string, else by that key on a direct child object (a study
/// kernel's `info.abbrev`, a frontier point's `score.name`), else by its
/// index.
Label element_label(const io::Json& e, std::size_t i) {
  constexpr std::string_view kKeys[] = {"abbrev", "machine", "name"};
  const auto own = [](const io::Json& o, std::string_view key) {
    const io::Json* v = o.is_object() ? o.find(key) : nullptr;
    return v != nullptr && v->is_string() ? &v->as_string() : nullptr;
  };
  if (e.is_object()) {
    for (const auto key : kKeys) {
      if (const auto* id = own(e, key)) return {key, *id};
    }
    for (const auto key : kKeys) {
      for (const auto& [name, child] : e.as_object()) {
        if (const auto* id = own(child, key)) return {key, *id};
      }
    }
  }
  std::string index = "[";
  index += std::to_string(i);
  index += ']';
  return {"", index};
}

/// A number, or the writer's spelling of a non-finite one.
bool is_numeric(const io::Json& j) {
  if (!j.is_string()) return j.is_number();
  const std::string& s = j.as_string();
  return s == "NaN" || s == "Infinity" || s == "-Infinity";
}

/// A non-numeric leaf as a mismatch cell: its JSON text, containers as
/// brackets, so values of two types never print alike.
std::string leaf_text(const io::Json& j) {
  if (j.is_object()) return "{...}";
  if (j.is_array()) return "[...]";
  return io::dump(j);
}

/// Compares every leaf under `a` and `b` (either may be absent): objects
/// key by key, arrays element by element_label(), numbers through
/// DiffReport::metric and every other leaf through mismatch.
void diff_json(DiffReport& d, const DiffWhere& w, const io::Json* a,
               const io::Json* b) {
  if (a == nullptr || b == nullptr) {
    d.mismatch(w.kernel, w.machine, w.path, a ? "present" : "missing",
               b ? "present" : "missing");
  } else if (a->is_object() && b->is_object()) {
    for (const auto& [key, va] : a->as_object()) {
      diff_json(d, w.member(key), &va, b->find(key));
    }
    for (const auto& [key, vb] : b->as_object()) {
      if (a->find(key) == nullptr) diff_json(d, w.member(key), nullptr, &vb);
    }
  } else if (a->is_array() && b->is_array()) {
    const auto& ea = a->as_array();
    const auto& eb = b->as_array();
    const auto labels = [](const io::Json::Array& elements) {
      std::vector<Label> l;
      for (std::size_t i = 0; i < elements.size(); ++i) {
        l.push_back(element_label(elements[i], i));
      }
      return l;
    };
    const auto la = labels(ea);
    const auto lb = labels(eb);
    for (std::size_t i = 0; i < ea.size(); ++i) {
      const auto match = std::find(lb.begin(), lb.end(), la[i]);
      diff_json(d, w.element(la[i]), &ea[i],
                match == lb.end() ? nullptr : &eb[match - lb.begin()]);
    }
    for (std::size_t i = 0; i < eb.size(); ++i) {
      if (std::find(la.begin(), la.end(), lb[i]) == la.end()) {
        diff_json(d, w.element(lb[i]), nullptr, &eb[i]);
      }
    }
  } else if (is_numeric(*a) && is_numeric(*b)) {
    d.metric(w.kernel, w.machine, w.path, a->as_number(), b->as_number());
  } else {
    d.mismatch(w.kernel, w.machine, w.path, leaf_text(*a), leaf_text(*b));
  }
}

/// A results file's JSON tree, once the loader its `format` tag names
/// (else the study loader) has accepted it.
io::Json checked_results(io::Json doc) {
  const std::string& format = doc.at("format").as_string();
  if (format == io::kExploreFormat) {
    (void)io::explore_from_json(doc);
  } else if (format == io::kParetoFormat) {
    (void)io::pareto_from_json(doc);
  } else {
    (void)io::study_from_json(doc);
  }
  return doc;
}

int cmd_diff(const RunOptions& opt, std::ostream& out, std::ostream& err) {
  const auto a = load_results(opt.positional[0], checked_results);
  const auto b = load_results(opt.positional[1], checked_results);
  if (a.at("format").as_string() != b.at("format").as_string()) {
    throw UsageError(
        "cannot compare results files of different formats (study, explore, "
        "pareto)");
  }

  DiffReport d(opt.tolerance);
  diff_json(d, {}, &a, &b);

  std::ostream& heading = opt.csv ? err : out;
  if (!d.ok()) {
    heading << "Metrics exceeding tolerance " << fmt_g(opt.tolerance)
            << ":\n";
    print(d.table(), opt.csv, out);
  }
  heading << (d.ok() ? "OK: " : "FAIL: ") << d.compared()
          << " metric(s) compared, " << d.exceeding()
          << " exceeding tolerance " << fmt_g(opt.tolerance)
          << " (max relative delta " << fmt_g(d.max_delta()) << ")\n";
  return d.ok() ? kExitOk : kExitFailure;
}

/// `fpr report FILE`: the paper's figures and Table IV, each followed by
/// its paper-vs-model comparison, from a `fpr study --out` results file.
int cmd_report(const RunOptions& opt, std::ostream& out, std::ostream& err) {
  const auto results =
      load_results(opt.positional.front(), io::study_from_json);
  std::ostream& heading = opt.csv ? err : out;
  for (const auto& section : study::paper_report(results)) {
    heading << section.heading << ":\n";
    print(section.table, opt.csv, out);
    if (!section.notes.empty()) heading << section.notes << "\n";
  }
  return kExitOk;
}

using Handler = int (*)(const RunOptions&, std::ostream&, std::ostream&);

/// One `fpr` command: its positional arguments (one placeholder each),
/// summary, the kOptions spellings it takes, and its handler. Parsing,
/// `fpr help` and `fpr <command> --help` all read this table.
struct Command {
  std::string_view name;
  std::string_view args;
  std::string_view summary;
  std::string_view options;
  Handler run;
};

constexpr Command kCommands[] = {
    {"list", "", "list all registered proxy kernels (Table II)", "--csv",
     cmd_list},
    {"tables", "", "print the static paper tables (I, II, III)", "--csv",
     cmd_tables},
    {"run", "", "run kernels: op-mix assay + machine projection",
     "--kernel --scale --threads --repeats --seed --auto-threads --csv",
     cmd_run},
    {"study", "",
     "full pipeline (kernel run -> memsim -> model -> freq sweep) on the "
     "parallel StudyEngine",
     "--kernel --scale --threads --seed --trace-refs --jobs --kernel-jobs "
     "--no-sweep --timing --golden --out --csv",
     cmd_study},
    {"memsim", "",
     "per-kernel x machine cache-hierarchy hit-rate table (the simulated "
     "PCM counters)",
     "--kernel --scale --threads --seed --refs --scale-shift --csv",
     cmd_memsim},
    {"trace", "FILE",
     "replay a recorded fpr-trace binary address trace through the same "
     "hierarchy simulation and print the per-machine hit-rate table "
     "(write the file with trace-record or trace-convert)",
     "--machine --refs --warmup --scale-shift --threads --out --csv",
     cmd_trace},
    {"trace-record", "FILE",
     "record the reference stream 'fpr memsim' replays for one kernel on "
     "one machine, behind a warmup prefix, as an fpr-trace file",
     "--kernel --machine --refs --warmup --scale --scale-shift --seed "
     "--threads",
     cmd_trace_record},
    {"trace-convert", "IN.txt OUT.fpt",
     "convert a text trace ('R <addr>' / 'W <addr>' lines, decimal or "
     "0x-hex, #-comments) to an fpr-trace file",
     "", cmd_trace_convert},
    {"trace-dump", "FILE", "print an fpr-trace file as that text form",
     "--limit", cmd_trace_dump},
    {"trace-info", "FILE",
     "print an fpr-trace file's header: records, digest, chunk size, "
     "address range, touched lines",
     "", cmd_trace_info},
    {"explore", "",
     "what-if machine exploration: sweep the kernels across derived "
     "variants of a base machine and score each variant against it "
     "(Sec. VII)",
     "--base --variants --golden --kernel --scale --threads --seed "
     "--trace-refs --jobs --kernel-jobs --out --csv",
     cmd_explore},
    {"pareto", "",
     "multi-objective design-space search: compose transforms under an "
     "area/TDP budget and keep the non-dominated frontier over time, "
     "energy, and the site projection (Sec. VII extended)",
     "--base --kernel --scale --threads --seed --trace-refs --jobs "
     "--kernel-jobs --budget-area --budget-tdp --objectives --rounds "
     "--explorers --max-depth --search-seed --out --csv",
     cmd_pareto},
    {"diff", "A.json B.json",
     "compare every value of two results files of one format (study, "
     "explore, or pareto): numbers by relative delta, the rest for equality",
     "--tolerance --csv", cmd_diff},
    {"report", "FILE",
     "print Figs. 1-7 and Table IV, each with its paper-vs-model "
     "comparison, from a results file written by 'fpr study --out'",
     "--csv", cmd_report},
};

/// "  HEAD  text": the text starts in a fixed column, on the next line
/// when HEAD reaches it, and word-wraps.
void help_line(std::ostream& os, std::string_view head,
               std::string_view text) {
  constexpr std::size_t kColumn = 23;
  constexpr std::size_t kWidth = 78;
  std::string line = "  ";
  line += head;
  if (line.size() >= kColumn) {
    os << line << "\n";
    line.clear();
  }
  for (const auto word : words(text)) {
    if (line.size() > kColumn && line.size() + 1 + word.size() > kWidth) {
      os << line << "\n";
      line.clear();
    }
    line.resize(std::max(line.size() + 1, kColumn), ' ');
    line += word;
  }
  os << line << "\n";
}

/// A name followed by its placeholder, if any ("trace FILE", "--seed N").
std::string with_arg(std::string_view name, std::string_view arg) {
  std::string s(name);
  if (!arg.empty()) {
    s += ' ';
    s += arg;
  }
  return s;
}

void print_usage(std::ostream& os) {
  os << "usage: fpr <command> [options]\n\ncommands:\n";
  for (const auto& c : kCommands) {
    help_line(os, with_arg(c.name, c.args), c.summary);
  }
  help_line(os, "help", "show this message");
  os << "\n'fpr <command> --help' lists the options a command takes; any\n"
        "other option is a usage error.\n\n"
        "exit codes: 0 ok; 1 runtime error or diff over tolerance;\n"
        "2 usage error; 3 an input file of diff, report, trace,\n"
        "trace-convert, trace-dump or trace-info missing, unreadable or\n"
        "malformed, or a trace file that cannot be written\n";
}

void print_command_usage(std::ostream& os, const Command& c) {
  const std::string head = with_arg(c.name, c.args);
  os << "usage: fpr " << head << " [options]\n";
  help_line(os, head, c.summary);
  os << "\noptions:\n";
  for (const auto name : words(c.options)) {
    const Option& o = *find_option(name);
    help_line(os, with_arg(o.name, o.arg), o.help);
  }
  help_line(os, "--help", "show this message");
}

int usage_error(std::ostream& err, const std::string& message,
                const Command* cmd) {
  err << "fpr: " << message << "\n";
  if (cmd != nullptr) {
    print_command_usage(err, *cmd);
  } else {
    print_usage(err);
  }
  return kExitUsage;
}

/// Parses the command line `args` (args[0] names `cmd`) against `cmd`'s
/// entry.
RunOptions parse_args(const Command& cmd,
                      const std::vector<std::string>& args) {
  RunOptions opt;
  const auto taken = words(cmd.options);
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      opt.positional.push_back(arg);
      continue;
    }
    if (std::find(taken.begin(), taken.end(), arg) == taken.end()) {
      throw UsageError("command '" + std::string(cmd.name) +
                       "' does not take option '" + arg + "'");
    }
    const Option& o = *find_option(arg);
    const bool flag = o.arg.empty();
    if (!flag && i + 1 == args.size()) {
      throw UsageError("option " + arg + " needs a value");
    }
    set_option(o, flag ? std::string() : args[++i], opt);
    opt.given.insert(o.name);
  }
  const std::size_t want = words(cmd.args).size();
  if (opt.positional.size() != want) {
    throw UsageError("command '" + std::string(cmd.name) + "' takes " +
                     std::to_string(want) + " argument(s), got " +
                     std::to_string(opt.positional.size()));
  }
  return opt;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) return usage_error(err, "missing command", nullptr);
  const std::string& name = args[0];
  if (name == "help" || name == "--help" || name == "-h") {
    print_usage(out);
    return kExitOk;
  }
  const auto* cmd =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) { return c.name == name; });
  if (cmd == std::end(kCommands)) {
    return usage_error(err, "unknown command '" + name + "'", nullptr);
  }
  if (std::find(args.begin() + 1, args.end(), "--help") != args.end()) {
    print_command_usage(out, *cmd);
    return kExitOk;
  }
  try {
    return cmd->run(parse_args(*cmd, args), out, err);
  } catch (const UsageError& e) {
    return usage_error(err, e.what(), cmd);
  } catch (const BadInput& e) {
    err << "fpr " << name << ": " << e.what() << "\n";
    return kExitBadInput;
  } catch (const io::TraceFormatError& e) {
    err << "fpr " << name << ": " << e.what() << "\n";
    return kExitBadInput;
  } catch (const std::exception& e) {
    err << "fpr: error: " << e.what() << "\n";
    return kExitFailure;
  }
}

}  // namespace fpr::cli
