// Tests for the `fpr` suite-runner command core: command dispatch,
// option parsing/validation, and the list/run/study/diff report
// contents. Driven in-process through run_cli so no child processes are
// needed.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "io/explore_json.hpp"
#include "io/pareto_json.hpp"
#include "io/study_json.hpp"
#include "io/trace_format.hpp"
#include "kernels/kernel.hpp"

namespace fpr::cli {
namespace {

struct CliOutcome {
  int code = 0;
  std::string out;
  std::string err;
};

CliOutcome run(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  CliOutcome r;
  r.code = run_cli(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

TEST(Cli, NoCommandIsUsageError) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage: fpr"), std::string::npos);
  EXPECT_TRUE(r.out.empty());
}

TEST(Cli, UnknownCommandIsUsageError) {
  const auto r = run({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command 'frobnicate'"), std::string::npos);
}

TEST(Cli, HelpPrintsUsageOnStdout) {
  const auto r = run({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage: fpr"), std::string::npos);
  EXPECT_TRUE(r.err.empty());
}

// ---------------------------------------------------------------------
// The command table: the options each command takes

/// What each command accepts, spelled out here independently of the
/// table in cli.cpp. Positional placeholders follow the command name.
const std::map<std::vector<std::string>, std::vector<std::string>>&
command_options() {
  static const std::map<std::vector<std::string>, std::vector<std::string>>
      table = {
          {{"list"}, {"--csv"}},
          {{"tables"}, {"--csv"}},
          {{"run"},
           {"--kernel", "--scale", "--threads", "--repeats", "--seed",
            "--auto-threads", "--csv"}},
          {{"study"},
           {"--kernel", "--scale", "--threads", "--seed", "--trace-refs",
            "--jobs", "--kernel-jobs", "--no-sweep", "--timing", "--golden",
            "--out", "--csv"}},
          {{"memsim"},
           {"--kernel", "--scale", "--threads", "--seed", "--refs",
            "--scale-shift", "--csv"}},
          {{"trace", "t.fpt"},
           {"--machine", "--refs", "--warmup", "--scale-shift", "--threads",
            "--out", "--csv"}},
          {{"trace-record", "t.fpt"},
           {"--kernel", "--machine", "--refs", "--warmup", "--scale",
            "--scale-shift", "--seed", "--threads"}},
          {{"trace-convert", "t.txt", "t.fpt"}, {}},
          {{"trace-dump", "t.fpt"}, {"--limit"}},
          {{"trace-info", "t.fpt"}, {}},
          {{"explore"},
           {"--base", "--variants", "--golden", "--kernel", "--scale",
            "--threads", "--seed", "--trace-refs", "--jobs", "--kernel-jobs",
            "--out", "--csv"}},
          {{"pareto"},
           {"--base", "--kernel", "--scale", "--threads", "--seed",
            "--trace-refs", "--jobs", "--kernel-jobs", "--budget-area",
            "--budget-tdp", "--objectives", "--rounds", "--explorers",
            "--max-depth", "--search-seed", "--out", "--csv"}},
          {{"diff", "a.json", "b.json"}, {"--tolerance", "--csv"}},
          {{"report", "r.json"}, {"--csv"}},
      };
  return table;
}

/// A well-formed value for each option ("" = a flag), so a rejection
/// can only come from the option's spelling.
const std::map<std::string, std::string> kSampleValue = {
    {"--auto-threads", ""},  {"--base", "KNM"},
    {"--budget-area", "2"},  {"--budget-tdp", "2"},
    {"--csv", ""},           {"--explorers", "2"},
    {"--golden", ""},        {"--jobs", "1"},
    {"--kernel", "BABL2"},   {"--kernel-jobs", "1"},
    {"--limit", "5"},        {"--machine", "KNL"},
    {"--max-depth", "2"},
    {"--no-sweep", ""},      {"--objectives", "time"},
    {"--out", "o.json"},     {"--refs", "1000"},
    {"--repeats", "1"},      {"--rounds", "1"},
    {"--scale", "0.15"},     {"--scale-shift", "6"},
    {"--search-seed", "7"},  {"--seed", "7"},
    {"--threads", "1"},      {"--timing", ""},
    {"--tolerance", "0.5"},  {"--trace-refs", "1000"},
    {"--variants", "tdp=0.85"}, {"--warmup", "10"},
};

TEST(Cli, EveryCommandRejectsOptionsItDoesNotTake) {
  std::set<std::string> all;
  for (const auto& [cmd, options] : command_options()) {
    all.insert(options.begin(), options.end());
  }
  ASSERT_EQ(all.size(), kSampleValue.size());
  for (const auto& [cmd, options] : command_options()) {
    for (const auto& option : all) {
      if (std::find(options.begin(), options.end(), option) !=
          options.end()) {
        continue;
      }
      auto args = cmd;
      args.push_back(option);
      if (!kSampleValue.at(option).empty()) {
        args.push_back(kSampleValue.at(option));
      }
      const auto r = run(args);
      const std::string first_line = r.err.substr(0, r.err.find('\n'));
      EXPECT_EQ(r.code, 2) << cmd[0] << " " << option;
      EXPECT_NE(first_line.find("'" + option + "'"), std::string::npos)
          << first_line;
      EXPECT_NE(first_line.find("'" + cmd[0] + "'"), std::string::npos)
          << first_line;
      EXPECT_TRUE(r.out.empty()) << cmd[0] << " " << option;
    }
  }
  // Both exited 0 and ignored the option before commands declared
  // their options.
  EXPECT_EQ(run({"list", "--budget-area", "2"}).code, 2);
  EXPECT_EQ(run({"memsim", "--objectives", "time"}).code, 2);
  // The undocumented plural aliases are gone too.
  EXPECT_EQ(run({"run", "--kernels", "BABL2"}).code, 2);
  EXPECT_EQ(run({"trace", "t.fpt", "--machines", "KNL"}).code, 2);
}

TEST(Cli, CommandHelpListsItsOptions) {
  for (const auto& [cmd, options] : command_options()) {
    const auto r = run({cmd[0], "--help"});
    EXPECT_EQ(r.code, 0) << cmd[0];
    EXPECT_TRUE(r.err.empty()) << cmd[0] << ": " << r.err;
    EXPECT_EQ(r.out.rfind("usage: fpr " + cmd[0], 0), 0u) << r.out;
    // An option line starts with its spelling after a two-space indent;
    // wrapped help text is indented further.
    std::set<std::string> listed;
    std::istringstream lines(r.out);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("  --", 0) == 0) {
        listed.insert(line.substr(2, line.find(' ', 2) - 2));
      }
    }
    std::set<std::string> expected(options.begin(), options.end());
    expected.insert("--help");
    EXPECT_EQ(listed, expected) << cmd[0];
  }
  // `fpr help` lists every command, from the same table.
  const auto help = run({"help"});
  for (const auto& [cmd, options] : command_options()) {
    EXPECT_NE(help.out.find("\n  " + cmd[0] + " "), std::string::npos)
        << cmd[0];
  }
}

TEST(Cli, ListShowsEveryRegisteredKernel) {
  const auto r = run({"list"});
  EXPECT_EQ(r.code, 0);
  for (const auto& abbrev : kernels::all_abbrevs()) {
    EXPECT_NE(r.out.find(abbrev), std::string::npos) << abbrev;
  }
}

TEST(Cli, ListCsvIsMachineParsable) {
  const auto r = run({"list", "--csv"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Abbrev,Name,Suite"), std::string::npos);
}

TEST(Cli, TablesRenderStaticPaperTables) {
  const auto r = run({"tables"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Xeon Phi"), std::string::npos);
}

TEST(Cli, RunEmitsOpMixAndRooflineReport) {
  const auto r = run({"run", "--kernel", "BABL2", "--scale", "0.15",
                      "--repeats", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Operation mix"), std::string::npos);
  EXPECT_NE(r.out.find("FP64[Gop]"), std::string::npos);
  EXPECT_NE(r.out.find("Machine projection + roofline placement:"),
            std::string::npos);
  // All three paper machines appear in the projection table.
  for (const char* machine : {"KNL", "KNM", "BDW"}) {
    EXPECT_NE(r.out.find(machine), std::string::npos) << machine;
  }
}

TEST(Cli, RunAutoThreadsReportsParallelismSearch) {
  const auto r = run({"run", "--kernel", "BABL2", "--scale", "0.15",
                      "--repeats", "1", "--auto-threads"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Parallelism search"), std::string::npos);
  // The padded ladder always explores at least {1, 2, 4}, independent
  // of the host's core count (the regression behind parallelism_ladder).
  for (const char* candidate : {"1:", "2:", "4:"}) {
    EXPECT_NE(r.out.find(candidate), std::string::npos) << candidate;
  }
}

TEST(Cli, RunAcceptsCommaSeparatedSubset) {
  const auto r = run({"run", "--kernel", "BABL2,MxIO", "--scale", "0.15",
                      "--repeats", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("BABL2"), std::string::npos);
  EXPECT_NE(r.out.find("MxIO"), std::string::npos);
}

TEST(Cli, RunCsvKeepsStdoutMachineParsable) {
  const auto r = run({"run", "--kernel", "BABL2", "--scale", "0.15",
                      "--repeats", "1", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  // Section headings are diagnostics: stderr only, never in the CSV.
  EXPECT_EQ(r.out.find("Operation mix"), std::string::npos);
  EXPECT_NE(r.err.find("Operation mix"), std::string::npos);
  EXPECT_NE(r.out.find("Kernel,Machine,Bound"), std::string::npos);
}

TEST(Cli, RunRejectsUnknownKernel) {
  const auto r = run({"run", "--kernel", "NOPE"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown kernel 'NOPE'"), std::string::npos);
}

TEST(Cli, RunRejectsBadOptionValues) {
  EXPECT_EQ(run({"run", "--scale", "0"}).code, 2);
  EXPECT_EQ(run({"run", "--scale", "banana"}).code, 2);
  // Non-finite scales pass a bare `<= 0` check; they must be rejected
  // before any kernel sizes its inputs from them.
  EXPECT_EQ(run({"run", "--scale", "nan"}).code, 2);
  EXPECT_EQ(run({"run", "--scale", "inf"}).code, 2);
  EXPECT_EQ(run({"run", "--repeats", "0"}).code, 2);
  EXPECT_EQ(run({"run", "--kernel"}).code, 2);   // missing value
  EXPECT_EQ(run({"run", "--kernel", ","}).code, 2);  // empty list
  EXPECT_EQ(run({"run", "--threads", "-1"}).code, 2);
  EXPECT_EQ(run({"run", "--threads", "99999999999999999999"}).code, 2);
  EXPECT_EQ(run({"run", "--wat"}).code, 2);
  EXPECT_EQ(run({"run", "stray-positional"}).code, 2);
}

// ---------------------------------------------------------------------------
// fpr study / fpr diff

/// Unique temp path, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("fpr_cli_test_" + std::to_string(::getpid()) + "_" + tag + "_" +
              std::to_string(++counter) + ".json"))
                .string();
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Fast single-kernel study invocation writing JSON to `out`.
CliOutcome run_study_to(const std::string& out,
                        const std::vector<std::string>& extra = {}) {
  std::vector<std::string> args = {"study",        "--kernel",
                                   "BABL2",        "--scale",
                                   "0.15",         "--trace-refs",
                                   "20000",        "--out",
                                   out};
  args.insert(args.end(), extra.begin(), extra.end());
  return run(args);
}

TEST(Cli, StudyWritesParsableResultsFile) {
  TempFile tmp("study");
  const auto r = run_study_to(tmp.path(), {"--jobs", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(std::filesystem::exists(tmp.path()));
  // Summary table on stdout covers every machine.
  EXPECT_NE(r.out.find("Study summary"), std::string::npos);
  for (const char* machine : {"KNL", "KNM", "BDW"}) {
    EXPECT_NE(r.out.find(machine), std::string::npos) << machine;
  }
  // The file is a loadable, schema-valid results document.
  const auto results = io::study_from_json(io::load_file(tmp.path()));
  ASSERT_EQ(results.kernels.size(), 1u);
  EXPECT_EQ(results.kernels[0].info.abbrev, "BABL2");
  // Default canonical timing: byte-stable output, no wall-clock noise.
  EXPECT_EQ(results.kernels[0].meas.host_seconds, 0.0);
}

TEST(Cli, StudyTimingFlagKeepsHostSeconds) {
  TempFile tmp("timing");
  const auto r = run_study_to(tmp.path(), {"--timing"});
  EXPECT_EQ(r.code, 0) << r.err;
  const auto results = io::study_from_json(io::load_file(tmp.path()));
  EXPECT_GT(results.kernels[0].meas.host_seconds, 0.0);
}

TEST(Cli, StudyOutDashEmitsPureJsonOnStdout) {
  const auto r = run_study_to("-");
  EXPECT_EQ(r.code, 0) << r.err;
  ASSERT_FALSE(r.out.empty());
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_EQ(r.out.find("Study summary"), std::string::npos);
  // Whole stdout is one JSON document (plus trailing newline).
  const auto results = io::study_from_json(io::parse(r.out));
  EXPECT_EQ(results.kernels.size(), 1u);
  // Diagnostics still land on stderr.
  EXPECT_NE(r.err.find("[fpr] study"), std::string::npos);
}

TEST(Cli, StudyCsvKeepsStdoutMachineParsable) {
  const auto r = run({"study", "--kernel", "BABL2", "--scale", "0.15",
                      "--trace-refs", "20000", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("Study summary"), std::string::npos);
  EXPECT_NE(r.err.find("Study summary"), std::string::npos);
  EXPECT_NE(r.out.find("Kernel,Machine,Bound"), std::string::npos);
}

TEST(Cli, StudyKernelJobsIsByteIdenticalToSerial) {
  const auto serial = run_study_to("-", {"--kernel-jobs", "1"});
  const auto parallel =
      run_study_to("-", {"--kernel-jobs", "4", "--jobs", "2"});
  EXPECT_EQ(serial.code, 0) << serial.err;
  EXPECT_EQ(parallel.code, 0) << parallel.err;
  EXPECT_EQ(serial.out, parallel.out);
  EXPECT_NE(parallel.err.find("kernel-jobs=4"), std::string::npos);
}

// ---------------------------------------------------------------------
// fpr explore

/// Fast two-kernel explore invocation.
CliOutcome run_explore(const std::vector<std::string>& extra = {}) {
  std::vector<std::string> args = {"explore",      "--kernel",
                                   "HPL,BABL2",    "--scale",
                                   "0.15",         "--trace-refs",
                                   "20000"};
  args.insert(args.end(), extra.begin(), extra.end());
  return run(args);
}

TEST(Cli, ExplorePrintsVariantScorecard) {
  const auto r = run_explore({"--variants", "drop-fp64-vec,dram-bw=1.5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Variant scorecard vs KNL"), std::string::npos);
  EXPECT_NE(r.out.find("Per-kernel projection"), std::string::npos);
  EXPECT_NE(r.out.find("KNL+drop-fp64-vec"), std::string::npos);
  EXPECT_NE(r.out.find("KNL+dram-bw=1.5"), std::string::npos);
  EXPECT_NE(r.out.find("(base)"), std::string::npos);
}

TEST(Cli, ExploreDefaultGridReportsAtLeastSixVariants) {
  for (const char* base : {"KNL", "KNM", "BDW"}) {
    const auto r = run({"explore", "--base", base, "--kernel", "BABL2",
                        "--scale", "0.15", "--trace-refs", "20000"});
    EXPECT_EQ(r.code, 0) << r.err;
    // Count variant rows in the scorecard: lines containing "<base>+".
    const std::string needle = std::string(base) + "+";
    std::size_t count = 0, pos = 0;
    while ((pos = r.out.find(needle, pos)) != std::string::npos) {
      ++count;
      pos += needle.size();
    }
    // Each variant appears in the scorecard and once per kernel in the
    // projection table; the scorecard alone carries >= 6.
    EXPECT_GE(count, 12u) << base;  // 6 variants x (scorecard + 1 kernel)
  }
}

TEST(Cli, ExploreWritesParsableResultsFile) {
  TempFile tmp("explore");
  const auto r = run_explore({"--variants", "tdp=0.85", "--out", tmp.path()});
  EXPECT_EQ(r.code, 0) << r.err;
  const auto results = io::explore_from_json(io::load_file(tmp.path()));
  EXPECT_EQ(results.base, "KNL");
  ASSERT_EQ(results.variants.size(), 1u);
  EXPECT_EQ(results.variants[0].name(), "KNL+tdp=0.85");
  ASSERT_EQ(results.baseline.kernels.size(), 2u);
}

TEST(Cli, ExploreOutDashIsByteIdenticalAcrossJobs) {
  const auto serial =
      run_explore({"--variants", "dram-bw=1.5", "--out", "-"});
  const auto parallel =
      run_explore({"--variants", "dram-bw=1.5", "--out", "-", "--jobs", "4",
                   "--kernel-jobs", "2"});
  EXPECT_EQ(serial.code, 0) << serial.err;
  EXPECT_EQ(parallel.code, 0) << parallel.err;
  ASSERT_FALSE(serial.out.empty());
  EXPECT_EQ(serial.out.front(), '{');
  EXPECT_EQ(serial.out, parallel.out);
  (void)io::explore_from_json(io::parse(serial.out));  // schema-valid
}

TEST(Cli, ExploreCsvKeepsStdoutMachineParsable) {
  const auto r = run_explore({"--variants", "tdp=0.85", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("Variant scorecard"), std::string::npos);
  EXPECT_NE(r.err.find("Variant scorecard"), std::string::npos);
  EXPECT_NE(r.out.find("Variant,Spec,GeoT2sol"), std::string::npos);
  EXPECT_NE(r.out.find("Kernel,Variant,Bound"), std::string::npos);
}

TEST(Cli, ExploreGoldenUsesSnapshotConfig) {
  const auto r = run({"explore", "--golden"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("base KNL"), std::string::npos);
  // The built-in KNL grid includes the MCDRAM transforms.
  EXPECT_NE(r.out.find("KNL+mcdram-cap=2"), std::string::npos);
}

TEST(Cli, ExploreRejectsBadOptions) {
  // An unknown base or a spec derive_variant rejects is a usage error
  // naming the option and the value, caught ahead of the engine.
  for (const auto& bad : std::vector<std::vector<std::string>>{
           {"--base", "EPYC"},
           {"--variants", "no-such"},
           {"--variants", "cores=1e12"},
           {"--variants", "widen-fp32=3e9"}}) {
    const auto r = run({"explore", "--kernel", "BABL2", "--threads", "1",
                        bad[0], bad[1]});
    EXPECT_EQ(r.code, 2) << bad[1];
    EXPECT_NE(r.err.find(bad[0]), std::string::npos) << r.err;
    EXPECT_NE(r.err.find(bad[1]), std::string::npos) << r.err;
  }
  // An MCDRAM too large to simulate derives a machine; the replay
  // refuses it by machine and level instead of wrapping a cast or
  // exhausting memory.
  for (const std::string spec :
       {"mcdram-cap=1e9", "mcdram-cap=1e12", "mcdram-cap=1e300"}) {
    const auto r = run({"explore", "--kernel", "BABL2", "--threads", "1",
                        "--scale", "0.15", "--trace-refs", "20000",
                        "--variants", spec});
    EXPECT_EQ(r.code, 1) << spec;
    EXPECT_NE(r.err.find("KNL+" + spec), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("MCDRAM$"), std::string::npos) << r.err;
  }
  EXPECT_EQ(run({"explore", "--variants", ","}).code, 2);
  EXPECT_EQ(run({"explore", "--base"}).code, 2);  // missing value
  EXPECT_EQ(run({"explore", "--kernel", "NOPE"}).code, 2);
  EXPECT_EQ(run({"explore", "stray"}).code, 2);
  // --golden fixes the measurement pass, the base and the grid; an
  // option it would silently override is rejected instead.
  for (const auto& fixed : std::vector<std::vector<std::string>>{
           {"--kernel", "HPL"},
           {"--scale", "9"},
           {"--threads", "2"},
           {"--seed", "7"},
           {"--trace-refs", "5000"},
           {"--base", "KNM"},
           {"--variants", "tdp=0.85"}}) {
    const auto r = run({"explore", "--golden", fixed[0], fixed[1]});
    EXPECT_EQ(r.code, 2) << fixed[0];
    EXPECT_NE(r.err.find("cannot be combined with " + fixed[0]),
              std::string::npos)
        << r.err;
  }
}

TEST(Cli, DiffComparesExploreFilesAndRejectsMixing) {
  TempFile a("explore_a"), b("explore_b"), s("study_s");
  ASSERT_EQ(run_explore({"--variants", "tdp=0.85", "--out", a.path()}).code,
            0);
  ASSERT_EQ(run_study_to(s.path()).code, 0);
  // Identical explore files compare clean.
  const auto same = run({"diff", a.path(), a.path()});
  EXPECT_EQ(same.code, 0) << same.err;
  EXPECT_NE(same.out.find("OK:"), std::string::npos);
  // Perturb one variant metric by 50%: zero tolerance flags it (naming
  // the variant and metric), a generous one accepts it.
  auto results = io::explore_from_json(io::load_file(a.path()));
  results.variants[0].geomean_time_ratio *= 1.5;
  io::save_file(b.path(), io::to_json(results));
  const auto strict = run({"diff", a.path(), b.path()});
  EXPECT_EQ(strict.code, 1);
  EXPECT_NE(strict.out.find("geomean_time_ratio"), std::string::npos);
  EXPECT_NE(strict.out.find("KNL+tdp=0.85"), std::string::npos);
  const auto loose = run({"diff", a.path(), b.path(), "--tolerance", "0.51"});
  EXPECT_EQ(loose.code, 0) << loose.err;
  // Study-vs-explore is a usage error, not a confusing schema failure.
  const auto mixed = run({"diff", a.path(), s.path()});
  EXPECT_EQ(mixed.code, 2);
  EXPECT_NE(mixed.err.find("cannot compare"), std::string::npos);
}

// ---------------------------------------------------------------------
// fpr pareto

/// Fast two-kernel, two-round pareto invocation.
CliOutcome run_pareto(const std::vector<std::string>& extra = {}) {
  std::vector<std::string> args = {
      "pareto", "--kernel", "HPL,BABL2",   "--scale",  "0.15",
      "--trace-refs", "20000", "--rounds", "1", "--explorers", "4"};
  args.insert(args.end(), extra.begin(), extra.end());
  return run(args);
}

TEST(Cli, ParetoPrintsFrontierAndStats) {
  const auto r = run_pareto();
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Pareto frontier vs KNL"), std::string::npos);
  EXPECT_NE(r.out.find("GeoT2sol"), std::string::npos);
  EXPECT_NE(r.err.find("[fpr] pareto search:"), std::string::npos);
  EXPECT_NE(r.err.find("duplicate(s)"), std::string::npos);
}

TEST(Cli, ParetoOutDashIsByteIdenticalAcrossJobs) {
  const auto serial = run_pareto({"--out", "-"});
  const auto parallel = run_pareto({"--out", "-", "--jobs", "4"});
  EXPECT_EQ(serial.code, 0) << serial.err;
  EXPECT_EQ(parallel.code, 0) << parallel.err;
  ASSERT_FALSE(serial.out.empty());
  EXPECT_EQ(serial.out.front(), '{');
  EXPECT_EQ(serial.out, parallel.out);
  (void)io::pareto_from_json(io::parse(serial.out));  // schema-valid
}

TEST(Cli, ParetoStatsLineIsIdenticalForEveryJobCount) {
  // Only the stats line: the header line echoes jobs.
  const auto stats_line = [](const CliOutcome& r) {
    const auto at = r.err.find("[fpr] pareto search:");
    return at == std::string::npos
               ? std::string()
               : r.err.substr(at, r.err.find('\n', at) - at);
  };
  const auto serial = run_pareto({"--jobs", "1"});
  const auto parallel = run_pareto({"--jobs", "4"});
  EXPECT_EQ(serial.code, 0) << serial.err;
  EXPECT_EQ(parallel.code, 0) << parallel.err;
  EXPECT_NE(stats_line(serial).find(" replay(s), "), std::string::npos)
      << serial.err;
  EXPECT_NE(stats_line(serial).find(" sibling fill(s)"), std::string::npos)
      << serial.err;
  EXPECT_EQ(stats_line(serial), stats_line(parallel));
}

TEST(Cli, ParetoCsvKeepsStdoutMachineParsable) {
  const auto r = run_pareto({"--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("Pareto frontier"), std::string::npos);
  EXPECT_NE(r.err.find("Pareto frontier"), std::string::npos);
  EXPECT_NE(r.out.find("Variant,Spec,GeoT2sol"), std::string::npos);
}

TEST(Cli, ParetoHonorsBudgetAndObjectiveOptions) {
  // A looser area budget admits machines the default box rejects.
  const auto roomy = run_pareto({"--budget-area", "1.2", "--objectives",
                                 "time,energy"});
  EXPECT_EQ(roomy.code, 0) << roomy.err;
  EXPECT_NE(roomy.err.find("area<=1.2"), std::string::npos);
  const auto results = io::pareto_from_json(io::parse(
      run_pareto({"--objectives", "time", "--out", "-"}).out));
  ASSERT_EQ(results.objectives.size(), 1u);
  EXPECT_EQ(results.objectives[0], study::Objective::time);
  for (const auto& p : results.frontier) {
    EXPECT_EQ(p.objectives.size(), 1u) << p.name();
  }
}

TEST(Cli, ParetoRejectsBadOptions) {
  const auto epyc = run({"pareto", "--base", "EPYC"});
  EXPECT_EQ(epyc.code, 2);
  EXPECT_NE(epyc.err.find("--base"), std::string::npos) << epyc.err;
  EXPECT_EQ(run_pareto({"--objectives", "throughput"}).code, 2);
  EXPECT_EQ(run_pareto({"--objectives", ","}).code, 2);
  EXPECT_EQ(run_pareto({"--max-depth", "0"}).code, 2);
  EXPECT_EQ(run_pareto({"--rounds", "-1"}).code, 2);
  EXPECT_EQ(run_pareto({"--budget-area", "0"}).code, 2);
  EXPECT_EQ(run_pareto({"--budget-tdp", "-1"}).code, 2);
  EXPECT_EQ(run_pareto({"--search-seed"}).code, 2);  // missing value
  EXPECT_EQ(run({"pareto", "stray"}).code, 2);
}

TEST(Cli, DiffComparesParetoFilesAndRejectsMixing) {
  TempFile a("pareto_a"), s("study_for_pareto");
  ASSERT_EQ(run_pareto({"--out", a.path()}).code, 0);
  ASSERT_EQ(run_study_to(s.path()).code, 0);
  const auto same = run({"diff", a.path(), a.path()});
  EXPECT_EQ(same.code, 0) << same.err;
  EXPECT_NE(same.out.find("OK:"), std::string::npos);
  const auto mixed = run({"diff", a.path(), s.path()});
  EXPECT_EQ(mixed.code, 2);
  EXPECT_NE(mixed.err.find("cannot compare"), std::string::npos);
}

// ---------------------------------------------------------------------
// fpr memsim

TEST(Cli, MemsimPrintsPerLevelHitRates) {
  const auto r = run({"memsim", "--kernel", "BABL2,XSBn", "--scale", "0.15",
                      "--refs", "20000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Simulated per-level hit rates"), std::string::npos);
  EXPECT_NE(r.out.find("L1h%"), std::string::npos);
  // One row per (kernel, machine); both last-level flavours appear.
  EXPECT_NE(r.out.find("MCDRAM$"), std::string::npos);
  EXPECT_NE(r.out.find("LLC"), std::string::npos);
  for (const char* machine : {"KNL", "KNM", "BDW"}) {
    EXPECT_NE(r.out.find(machine), std::string::npos) << machine;
  }
  EXPECT_NE(r.err.find("memsim cache:"), std::string::npos);
}

TEST(Cli, MemsimCsvKeepsStdoutMachineParsable) {
  const auto r = run({"memsim", "--kernel", "BABL2", "--scale", "0.15",
                      "--refs", "20000", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Kernel,Machine,L1h%"), std::string::npos);
  EXPECT_EQ(r.out.find("Simulated per-level"), std::string::npos);
}

TEST(Cli, MemsimHonorsScaleShiftAndRefs) {
  const auto deep = run({"memsim", "--kernel", "BABL2", "--scale", "0.15",
                         "--refs", "15000", "--scale-shift", "6"});
  EXPECT_EQ(deep.code, 0) << deep.err;
  EXPECT_NE(deep.err.find("refs=15000"), std::string::npos);
  EXPECT_NE(deep.err.find("scale-shift=6"), std::string::npos);
  EXPECT_NE(deep.out.find("2^-6"), std::string::npos);
}

TEST(Cli, MemsimRejectsBadOptions) {
  EXPECT_EQ(run({"memsim", "--kernel", "NOPE"}).code, 2);
  EXPECT_EQ(run({"memsim", "--refs", "0"}).code, 2);
  // Negative counts must be rejected, not wrapped by unsigned parsing.
  EXPECT_EQ(run({"memsim", "--refs", "-5"}).code, 2);
  EXPECT_EQ(run({"memsim", "--seed", "-1"}).code, 2);
  EXPECT_EQ(run({"memsim", "--scale-shift", "31"}).code, 2);
  EXPECT_EQ(run({"memsim", "--scale-shift", "-1"}).code, 2);
  EXPECT_EQ(run({"memsim", "stray"}).code, 2);
  // A repeated kernel would run twice or be dropped (memsim: replay the
  // same memo keys twice), so every command that runs kernels rejects
  // it before announcing or running any.
  for (const char* command : {"memsim", "run", "study", "explore", "pareto"}) {
    const auto twice = run({command, "--kernel", "BABL2,XSBn,BABL2"});
    EXPECT_EQ(twice.code, 2) << command;
    EXPECT_NE(twice.err.find("kernel 'BABL2' given more than once"),
              std::string::npos)
        << command << ": " << twice.err;
    EXPECT_EQ(twice.err.find("[fpr]"), std::string::npos)
        << command << ": " << twice.err;
    EXPECT_TRUE(twice.out.empty()) << command;
  }
  EXPECT_EQ(run({"memsim", "--kernel", "XSBn", "--kernel", "XSBn"}).code, 2);
}

// ---------------------------------------------------------------------
// fpr trace

/// Record the exact reference stream `fpr memsim --scale 0.15` simulates
/// for (kernel, machine) to `path` with `fpr trace-record`: a warmup
/// prefix of `refs` records plus `refs` measured ones.
void record_kernel_trace(const std::string& path, const std::string& kernel,
                         const std::string& machine, std::uint64_t refs,
                         unsigned scale_shift) {
  const auto r = run({"trace-record", path, "--kernel", kernel, "--machine",
                      machine, "--refs", std::to_string(refs), "--scale",
                      "0.15", "--scale-shift", std::to_string(scale_shift)});
  ASSERT_EQ(r.code, 0) << r.err;
}

/// The `machine` row of a memsim or trace CSV table without its leading
/// Kernel/Trace label; "" when there is none.
std::string csv_row(const std::string& csv, const std::string& machine) {
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) {
    const auto comma = line.find(',');
    if (comma == std::string::npos) continue;
    if (line.compare(comma + 1, machine.size() + 1, machine + ",") == 0) {
      return line.substr(comma + 1);
    }
  }
  return "";
}

TEST(Cli, TraceReplayMatchesMemsimRowBitForBit) {
  TempFile tmp("trace");
  record_kernel_trace(tmp.path(), "BABL2", "KNL", 20000, 8);
  // --threads sizes the pool the per-machine replays fan out over; the
  // rows are byte-identical whatever the count.
  const auto trace = run({"trace", tmp.path(), "--machine", "KNL",
                          "--warmup", "20000", "--threads", "4", "--csv"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const auto memsim = run({"memsim", "--kernel", "BABL2", "--scale", "0.15",
                           "--refs", "20000", "--csv"});
  ASSERT_EQ(memsim.code, 0) << memsim.err;
  // Same columns after the leading label, so the KNL rows must be
  // byte-identical: the file replay IS the synthetic replay.
  const std::string memsim_knl = csv_row(memsim.out, "KNL");
  ASSERT_FALSE(memsim_knl.empty());
  EXPECT_EQ(csv_row(trace.out, "KNL"), memsim_knl)
      << "trace: " << trace.out << "memsim: " << memsim.out;
}

TEST(Cli, TraceWritesProfileJson) {
  TempFile tmp("trace_json");
  TempFile out("trace_profile");
  record_kernel_trace(tmp.path(), "BABL2", "KNL", 10000, 8);
  const auto r = run({"trace", tmp.path(), "--warmup", "10000", "--out",
                      out.path()});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto doc = io::load_file(out.path());
  EXPECT_EQ(doc.at("format").as_string(), "fpr-trace-profile");
  EXPECT_EQ(doc.at("version").as_u64(), 1u);
  EXPECT_EQ(doc.at("trace").at("refs").as_u64(), 10000u);
  const auto& machines = doc.at("machines").as_array();
  ASSERT_EQ(machines.size(), 3u);  // all Table I machines by default
  EXPECT_EQ(machines[0].at("machine").as_string(), "KNL");
  // The memory profile carries the study_json MemoryProfile schema.
  EXPECT_TRUE(machines[0].at("mem").find("l2_hit") != nullptr ||
              machines[0].at("mem").is_object());
}

TEST(Cli, TraceRejectsBadUsage) {
  TempFile tmp("trace_usage");
  record_kernel_trace(tmp.path(), "BABL2", "KNL", 1000, 8);
  EXPECT_EQ(run({"trace"}).code, 2);  // missing file
  EXPECT_EQ(run({"trace", tmp.path(), "extra.fpt"}).code, 2);
  EXPECT_EQ(run({"trace", tmp.path(), "--refs", "0"}).code, 2);
  EXPECT_EQ(run({"trace", tmp.path(), "--refs", "-5"}).code, 2);
  EXPECT_EQ(run({"trace", tmp.path(), "--machine", "VAX"}).code, 2);
  // A repeated machine would replay the same memo key twice.
  const auto twice = run({"trace", tmp.path(), "--machine", "KNL,BDW,KNL"});
  EXPECT_EQ(twice.code, 2);
  EXPECT_NE(twice.err.find("machine 'KNL' given more than once"),
            std::string::npos)
      << twice.err;
  const auto repeated = run({"trace", tmp.path(), "--machine", "BDW",
                             "--machine", "BDW"});
  EXPECT_EQ(repeated.code, 2);
  // Warmup swallowing the whole file leaves nothing to measure.
  EXPECT_EQ(run({"trace", tmp.path(), "--warmup", "2000"}).code, 2);
}

TEST(Cli, TraceBadInputExitsThree) {
  const auto missing = run({"trace", "/nonexistent/trace.fpt"});
  EXPECT_EQ(missing.code, 3);
  EXPECT_NE(missing.err.find("missing or unreadable"), std::string::npos);

  TempFile junk("trace_junk");
  {
    std::ofstream f(junk.path(), std::ios::binary);
    f << "definitely not an fpr-trace file, but long enough to read";
  }
  const auto bad = run({"trace", junk.path()});
  EXPECT_EQ(bad.code, 3);
  EXPECT_NE(bad.err.find("bad magic"), std::string::npos);

  // A valid header over a chunk stream cut short: the decode error is
  // raised inside the per-machine replays on the pool's workers and
  // must still reach the command's handler.
  TempFile cut("trace_cut");
  record_kernel_trace(cut.path(), "BABL2", "KNL", 20000, 8);
  const auto half = std::filesystem::file_size(cut.path()) / 2;
  std::filesystem::resize_file(cut.path(), half);
  const auto truncated = run({"trace", cut.path(), "--threads", "4"});
  EXPECT_EQ(truncated.code, 3);
  EXPECT_NE(truncated.err.find("truncated"), std::string::npos)
      << truncated.err;
}

TEST(Cli, TraceOutputIsIdenticalForEveryThreadCount) {
  TempFile tmp("trace_threads");
  record_kernel_trace(tmp.path(), "XSBn", "BDW", 20000, 8);
  auto with_threads = [&](const char* threads) {
    return run({"trace", tmp.path(), "--warmup", "20000", "--threads", threads,
                "--out", "-"});
  };
  const auto serial = with_threads("1");
  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_EQ(io::parse(serial.out).at("machines").as_array().size(), 3u);
  EXPECT_NE(serial.err.find("trace cache: 0 hit(s), 3 replay(s)"),
            std::string::npos)
      << serial.err;
  for (const char* threads : {"2", "4"}) {
    const auto r = with_threads(threads);
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_EQ(r.out, serial.out) << "--threads " << threads;
    EXPECT_EQ(r.err, serial.err) << "--threads " << threads;
  }
}

// ---------------------------------------------------------------------
// fpr trace-record, trace-convert, trace-dump, trace-info

std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

// The trace tools end to end: trace-record writes the stream memsim
// replays, trace-info prints its header, trace-dump | trace-convert gives
// the recording back byte for byte, and `fpr trace` of the recording is
// memsim's KNL row.
TEST(Cli, TraceToolRoundTrip) {
  TempFile rec("tool_rec");
  TempFile text("tool_text");
  TempFile back("tool_back");
  const auto recorded = run({"trace-record", rec.path(), "--kernel", "BABL2",
                             "--machine", "KNL", "--refs", "40000"});
  ASSERT_EQ(recorded.code, 0) << recorded.err;
  EXPECT_TRUE(recorded.out.empty()) << recorded.out;
  EXPECT_NE(recorded.err.find(
                "80000 record(s) (40000 warmup + 40000 measured), kernel "
                "BABL2 on KNL, scale-shift 8"),
            std::string::npos)
      << recorded.err;

  const auto info = run({"trace-info", rec.path()});
  ASSERT_EQ(info.code, 0) << info.err;
  const auto header = io::read_trace_info(rec.path());
  char digest[20];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(header.digest));
  EXPECT_EQ(info.out.rfind("file:           " + rec.path() + "\n", 0), 0u)
      << info.out;
  for (const std::string& line :
       {std::string("records:        80000\n"),
        "digest:         " + std::string(digest) + "\n",
        std::string("chunk_records:  4096\n"),
        "touched_lines:  " + std::to_string(header.touched_lines) + "\n"}) {
    EXPECT_NE(info.out.find(line), std::string::npos) << info.out;
  }

  const auto dump = run({"trace-dump", rec.path()});
  ASSERT_EQ(dump.code, 0) << dump.err;
  EXPECT_EQ(std::count(dump.out.begin(), dump.out.end(), '\n'), 80000);
  std::ofstream(text.path(), std::ios::binary) << dump.out;
  const auto convert = run({"trace-convert", text.path(), back.path()});
  ASSERT_EQ(convert.code, 0) << convert.err;
  EXPECT_TRUE(file_bytes(back.path()) == file_bytes(rec.path()));

  // --limit prints the first rows and counts the rest on stderr.
  const auto head = run({"trace-dump", rec.path(), "--limit", "16"});
  ASSERT_EQ(head.code, 0) << head.err;
  std::size_t end = 0;
  for (int i = 0; i < 16; ++i) end = dump.out.find('\n', end) + 1;
  EXPECT_EQ(head.out, dump.out.substr(0, end));
  EXPECT_NE(head.err.find("79984 more record(s)"), std::string::npos)
      << head.err;

  const auto trace = run({"trace", rec.path(), "--machine", "KNL",
                          "--warmup", "40000", "--csv"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const auto memsim =
      run({"memsim", "--kernel", "BABL2", "--refs", "40000", "--csv"});
  ASSERT_EQ(memsim.code, 0) << memsim.err;
  const std::string memsim_knl = csv_row(memsim.out, "KNL");
  ASSERT_FALSE(memsim_knl.empty());
  EXPECT_EQ(csv_row(trace.out, "KNL"), memsim_knl);
}

TEST(Cli, TraceToolRejectsBadInput) {
  TempFile rec("tool_bad");
  const std::string& f = rec.path();
  auto record = [&](const std::vector<std::string>& extra) {
    std::vector<std::string> args = {"trace-record", f, "--kernel", "BABL2",
                                     "--scale", "0.15"};
    args.insert(args.end(), extra.begin(), extra.end());
    return run(args);
  };
  // Every value is checked whole, a second kernel or machine is refused,
  // and none of these records anything.
  for (const auto& extra : std::vector<std::vector<std::string>>{
           {"--refs", "1000x"},
           {"--scale", "0.3x"},
           {"--seed", "5e3"},
           {"--refs", "0"},
           {"--warmup", "-1"},
           {"--kernel", "XSBn"},
           {"--machine", "KNL,BDW"},
           {"--machine", "KNL", "--machine", "KNM"},
           {"--machine", "VAX"},
           {"--scale", "nan"},
           {"--scale-shift", "4294967296"},
           {"--limit", "2"},
           {"--out", "o.fpt"},
           {"extra.fpt"}}) {
    const auto r = record(extra);
    EXPECT_EQ(r.code, 2) << extra[0] << ": " << r.err;
    EXPECT_NE(r.err.find("\nusage: fpr trace-record FILE"), std::string::npos)
        << r.err;
  }
  EXPECT_EQ(run({"trace-record", f}).code, 2);  // no kernel
  EXPECT_EQ(run({"trace-record", f, "--kernel", "BABL2,XSBn"}).code, 2);
  EXPECT_EQ(run({"trace-record", "--kernel", "BABL2"}).code, 2);  // no file
  EXPECT_FALSE(std::filesystem::exists(f));
  EXPECT_NE(record({"--scale", "nan"})
                .err.find("--scale must be finite and > 0\n"
                          "usage: fpr trace-record"),
            std::string::npos);
  EXPECT_NE(record({"--scale-shift", "4294967296"})
                .err.find("--scale-shift must be <= 30\n"
                          "usage: fpr trace-record"),
            std::string::npos);

  // The inspection commands take their own options and file count only.
  EXPECT_EQ(run({"trace-info", f, "--kernel", "X"}).code, 2);
  EXPECT_EQ(run({"trace-dump", f, "--limit", "2", "--machine", "BDW"}).code,
            2);
  EXPECT_EQ(run({"trace-dump", f, "--limit", "2x"}).code, 2);
  EXPECT_EQ(run({"trace-info"}).code, 2);
  EXPECT_EQ(run({"trace-info", f, f}).code, 2);
  EXPECT_EQ(run({"trace-dump"}).code, 2);
  EXPECT_EQ(run({"trace-convert", f}).code, 2);
  EXPECT_EQ(run({"trace-convert", f, f, f}).code, 2);

  // A missing, truncated or malformed file is bad input naming the file.
  auto expect_bad_input = [](const CliOutcome& r, const std::string& path,
                             const std::string& cause) {
    EXPECT_EQ(r.code, 3) << r.err;
    EXPECT_NE(r.err.find("'" + path + "'"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find(cause), std::string::npos) << r.err;
  };
  const std::string missing = "/nonexistent/t.fpt";
  expect_bad_input(run({"trace-info", missing}), missing, "missing");
  expect_bad_input(run({"trace-dump", missing}), missing, "missing");
  expect_bad_input(run({"trace-convert", missing, f}), missing, "missing");
  EXPECT_FALSE(std::filesystem::exists(f));

  ASSERT_EQ(record({"--refs", "5000"}).code, 0);
  const std::string bytes = file_bytes(f);
  std::filesystem::resize_file(f, bytes.size() / 2);
  expect_bad_input(run({"trace-dump", f}), f, "truncated");
  std::filesystem::resize_file(f, 20);
  expect_bad_input(run({"trace-info", f}), f, "truncated header");
  // A header chunk size above 2^20 (offset 12, little-endian 2^21).
  std::string big = bytes;
  big.replace(12, 4, std::string("\0\0\x20\0", 4));
  std::ofstream(f, std::ios::binary | std::ios::trunc) << big;
  expect_bad_input(run({"trace-info", f}), f, "chunk size 2097152");
  expect_bad_input(run({"trace-dump", f}), f, "chunk size 2097152");

  // An output that cannot be written is exit 3 too.
  expect_bad_input(run({"trace-record", "/nonexistent/t.fpt", "--kernel",
                        "BABL2", "--scale", "0.15", "--refs", "1000"}),
                   missing, "cannot write");
}

// A malformed line fails the conversion and removes the partial output,
// so nothing is left for `fpr trace` to replay.
TEST(Cli, TraceConvertRejectsMalformedTextAndLeavesNoFile) {
  TempFile text("convert_text");
  TempFile out("convert_out");
  std::ofstream(text.path()) << "R 0x1000\nW 0x1040\nR 4096\nR 0x10zz\n"
                                "R 0x2000\n";
  const auto r = run({"trace-convert", text.path(), out.path()});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.err.find("text trace line 4"), std::string::npos) << r.err;
  EXPECT_FALSE(std::filesystem::exists(out.path()));
  EXPECT_EQ(run({"trace", out.path()}).code, 3);

  // The same lines without the bad one convert.
  std::ofstream(text.path(), std::ios::trunc)
      << "R 0x1000\nW 0x1040\nR 4096\nR 0x2000\n";
  ASSERT_EQ(run({"trace-convert", text.path(), out.path()}).code, 0);
  EXPECT_EQ(io::read_trace_info(out.path()).records, 4u);
}

TEST(Cli, MemsimOutputIsIdenticalForEveryThreadCount) {
  auto with_threads = [](const char* threads) {
    return run({"memsim", "--kernel", "BABL2,XSBn", "--scale", "0.15",
                "--refs", "20000", "--csv", "--threads", threads});
  };
  const auto serial = with_threads("1");
  ASSERT_EQ(serial.code, 0) << serial.err;
  for (const char* threads : {"2", "4"}) {
    const auto r = with_threads(threads);
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_EQ(r.out, serial.out) << "--threads " << threads;
    // Distinct kernels and machines: no memo key repeats, so even the
    // cache line on stderr is exact.
    EXPECT_EQ(r.err, serial.err) << "--threads " << threads;
  }
}

TEST(Cli, StudyRejectsBadOptions) {
  EXPECT_EQ(run({"study", "--kernel", "NOPE"}).code, 2);
  EXPECT_EQ(run({"study", "--jobs", "-1"}).code, 2);
  EXPECT_EQ(run({"study", "--jobs", "9999999"}).code, 2);
  EXPECT_EQ(run({"study", "--kernel-jobs", "-1"}).code, 2);
  EXPECT_EQ(run({"study", "--kernel-jobs", "9999999"}).code, 2);
  EXPECT_EQ(run({"study", "--kernel-jobs"}).code, 2);  // missing value
  EXPECT_EQ(run({"study", "--trace-refs", "0"}).code, 2);
  EXPECT_EQ(run({"study", "--trace-refs", "-5"}).code, 2);
  EXPECT_EQ(run({"study", "--seed", "-1"}).code, 2);
  EXPECT_EQ(run({"study", "--out"}).code, 2);  // missing value
  EXPECT_EQ(run({"study", "stray"}).code, 2);
  // --golden is a fixed preset; flags it would silently ignore are
  // rejected instead.
  EXPECT_EQ(run({"study", "--golden", "--timing"}).code, 2);
  EXPECT_EQ(run({"study", "--golden", "--no-sweep"}).code, 2);
  for (const auto& fixed : std::vector<std::vector<std::string>>{
           {"--kernel", "HPL"},
           {"--scale", "9"},
           {"--threads", "2"},
           {"--seed", "7"},
           {"--trace-refs", "5000"}}) {
    const auto r = run({"study", "--golden", fixed[0], fixed[1]});
    EXPECT_EQ(r.code, 2) << fixed[0];
    EXPECT_NE(r.err.find("cannot be combined with " + fixed[0]),
              std::string::npos)
        << r.err;
  }
}

TEST(Cli, StudyPropagatesSeedToKernels) {
  // XSBn's synthetic lookup inputs depend on the PRNG seed, so its
  // serialized results must differ between seeds (and stay stable for
  // the same seed).
  TempFile a("seed_a");
  TempFile b("seed_b");
  TempFile c("seed_c");
  auto study = [&](const std::string& out, const char* seed) {
    return run({"study", "--kernel", "XSBn", "--scale", "0.15",
                "--trace-refs", "5000", "--seed", seed, "--out", out});
  };
  ASSERT_EQ(study(a.path(), "42").code, 0);
  ASSERT_EQ(study(b.path(), "7").code, 0);
  ASSERT_EQ(study(c.path(), "42").code, 0);
  std::ifstream fa(a.path()), fb(b.path()), fc(c.path());
  const std::string ja((std::istreambuf_iterator<char>(fa)), {});
  const std::string jb((std::istreambuf_iterator<char>(fb)), {});
  const std::string jc((std::istreambuf_iterator<char>(fc)), {});
  EXPECT_NE(ja, jb);
  EXPECT_EQ(ja, jc);
}

TEST(Cli, DiffMissingInputFileIsDistinctExitCode) {
  TempFile a("diff_a");
  ASSERT_EQ(run_study_to(a.path()).code, 0);
  // Missing file: exit 3 (not 1 = over-tolerance, not 2 = usage) with a
  // clear message naming the file instead of a raw parse error.
  const auto missing = run({"diff", a.path(), "/no/such/results.json"});
  EXPECT_EQ(missing.code, 3) << missing.err;
  EXPECT_NE(missing.err.find("/no/such/results.json"), std::string::npos);
  EXPECT_NE(missing.err.find("cannot read"), std::string::npos);
  // Both orders are covered — the first file is probed too.
  const auto first = run({"diff", "/no/such/results.json", a.path()});
  EXPECT_EQ(first.code, 3) << first.err;
  // A present but malformed file is bad input too, named in the
  // message: text that is not JSON, and JSON missing a required key.
  TempFile bad("diff_corrupt");
  {
    std::ofstream out(bad.path());
    out << "{not json";
  }
  const auto corrupt = run({"diff", a.path(), bad.path()});
  EXPECT_EQ(corrupt.code, 3) << corrupt.err;
  EXPECT_NE(corrupt.err.find(bad.path()), std::string::npos) << corrupt.err;
  TempFile keyless("diff_keyless");
  {
    std::string text = io::dump(io::load_file(a.path()));
    text.replace(text.find("\"info\""), 6, "\"note\"");
    std::ofstream(keyless.path()) << text;
  }
  const auto no_key = run({"diff", keyless.path(), a.path()});
  EXPECT_EQ(no_key.code, 3) << no_key.err;
  EXPECT_NE(no_key.err.find("missing key \"info\""), std::string::npos)
      << no_key.err;
  EXPECT_NE(no_key.err.find(keyless.path()), std::string::npos)
      << no_key.err;
}

TEST(Cli, DiffIdenticalFilesIsCleanExitZero) {
  TempFile a("diff_a");
  ASSERT_EQ(run_study_to(a.path()).code, 0);
  const auto r = run({"diff", a.path(), a.path()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("OK:"), std::string::npos);
  EXPECT_NE(r.out.find("0 exceeding"), std::string::npos);
}

TEST(Cli, DiffReportsRelativeDeltasAndHonoursTolerance) {
  TempFile a("diff_a");
  TempFile b("diff_b");
  ASSERT_EQ(run_study_to(a.path()).code, 0);
  // Perturb one metric by 50% in the B file.
  auto doc = io::load_file(a.path());
  auto results = io::study_from_json(doc);
  results.kernels[0].machines[0].perf.seconds *= 1.5;
  io::save_file(b.path(), io::to_json(results));

  const auto r = run({"diff", a.path(), b.path()});
  EXPECT_EQ(r.code, 1) << r.err;
  EXPECT_NE(r.out.find("FAIL:"), std::string::npos);
  EXPECT_NE(r.out.find("perf.seconds"), std::string::npos);  // the metric
  EXPECT_NE(r.out.find("KNL"), std::string::npos);           // the machine

  // A generous tolerance accepts the same pair.
  const auto ok = run({"diff", a.path(), b.path(), "--tolerance", "0.51"});
  EXPECT_EQ(ok.code, 0) << ok.err;
  EXPECT_NE(ok.out.find("OK:"), std::string::npos);

  // CSV mode: rows on stdout, prose on stderr.
  const auto csv = run({"diff", a.path(), b.path(), "--csv"});
  EXPECT_EQ(csv.code, 1);
  EXPECT_NE(csv.out.find("Kernel,Machine,Metric"), std::string::npos);
  EXPECT_EQ(csv.out.find("FAIL:"), std::string::npos);
  EXPECT_NE(csv.err.find("FAIL:"), std::string::npos);
}

TEST(Cli, DiffNeverLetsNaNPassAsEqual) {
  TempFile a("nan_a");
  TempFile b("nan_b");
  ASSERT_EQ(run_study_to(a.path()).code, 0);
  auto results = io::study_from_json(io::load_file(a.path()));
  results.kernels[0].machines[0].perf.seconds =
      std::numeric_limits<double>::quiet_NaN();
  io::save_file(b.path(), io::to_json(results));
  // A NaN regression fails even the widest finite tolerance.
  const auto r = run({"diff", a.path(), b.path(), "--tolerance", "1e9"});
  EXPECT_EQ(r.code, 1) << r.out;
  EXPECT_NE(r.out.find("perf.seconds"), std::string::npos);
  // NaN vs NaN counts as identical (the file diffs clean vs itself).
  EXPECT_EQ(run({"diff", b.path(), b.path()}).code, 0);
}

/// The schema path of every leaf under `v` at `path`, array indices
/// collapsed to "[]" ("kernels[].info.abbrev"), each once, in document
/// order.
void schema_paths(const io::Json& v, const std::string& path,
                  std::vector<std::string>& out) {
  if (v.is_object()) {
    for (const auto& [key, child] : v.as_object()) {
      schema_paths(child, path.empty() ? key : path + "." + key, out);
    }
  } else if (v.is_array()) {
    for (const auto& e : v.as_array()) schema_paths(e, path + "[]", out);
  } else if (std::find(out.begin(), out.end(), path) == out.end()) {
    out.push_back(path);
  }
}

/// Changes the first leaf under `v` whose schema path is `target`: a
/// number n becomes 2n + 1, a bool flips and a string gains a character.
/// Returns the changed leaf, or nullptr when there is none.
const io::Json* perturb_first(io::Json& v, const std::string& path,
                              const std::string& target) {
  if (v.is_object()) {
    for (auto& [key, child] : v.as_object()) {
      const std::string at = path.empty() ? key : path + "." + key;
      if (const auto* leaf = perturb_first(child, at, target)) return leaf;
    }
    return nullptr;
  }
  if (v.is_array()) {
    for (auto& e : v.as_array()) {
      if (const auto* leaf = perturb_first(e, path + "[]", target)) {
        return leaf;
      }
    }
    return nullptr;
  }
  if (path != target) return nullptr;
  if (v.is_bool()) {
    v = io::Json(!v.as_bool());
  } else if (v.is_string()) {
    v = io::Json(v.as_string() + "x");
  } else if (v.is_u64()) {
    v = io::Json(v.raw_u64() * 2 + 1);
  } else if (v.is_i64()) {
    v = io::Json(v.raw_i64() * 2 + 1);
  } else {
    v = io::Json(v.as_number() * 2 + 1);
  }
  return &v;
}

TEST(Cli, DiffCoversEverySerializedMetric) {
  TempFile a("cover_a");
  TempFile b("cover_b");
  ASSERT_EQ(run_study_to(a.path()).code, 0);
  // Regressions in the less headline-grabbing metrics must be caught
  // too: a memory-profile detail and a turbo-flag-only sweep change.
  auto results = io::study_from_json(io::load_file(a.path()));
  auto& m0 = results.kernels[0].machines[0];
  m0.mem.mcdram_capture = m0.mem.mcdram_capture * 0.5 + 0.2;
  ASSERT_FALSE(m0.freq_sweep.empty());
  m0.freq_sweep.back().first.turbo = !m0.freq_sweep.back().first.turbo;
  io::save_file(b.path(), io::to_json(results));

  const auto r = run({"diff", a.path(), b.path()});
  EXPECT_EQ(r.code, 1) << r.out;
  EXPECT_NE(r.out.find("mcdram_capture"), std::string::npos);
  EXPECT_NE(r.out.find("turbo"), std::string::npos);  // the turbo mismatch

  // Every distinct schema path of the three goldens, changed at its
  // first leaf, fails the diff: numbers and bools exit 1 (a version no
  // reader takes exits 3), strings exit 1 or, where the loader checks
  // them, 3.
  for (const std::string golden :
       {FPR_GOLDEN_SNAPSHOT, FPR_EXPLORE_GOLDEN, FPR_PARETO_GOLDEN}) {
    const auto doc = io::load_file(golden);
    std::vector<std::string> paths;
    schema_paths(doc, "", paths);
    for (const auto& path : paths) {
      auto changed = doc;
      const auto* leaf = perturb_first(changed, "", path);
      ASSERT_NE(leaf, nullptr) << path;
      io::save_file(b.path(), changed);
      const int code = run({"diff", golden, b.path()}).code;
      if (path == "version") {
        EXPECT_EQ(code, 3) << golden << ": " << path;
      } else if (leaf->is_string()) {
        EXPECT_TRUE(code == 1 || code == 3) << golden << ": " << path;
      } else {
        EXPECT_EQ(code, 1) << golden << ": " << path;
      }
    }
    if (golden == FPR_GOLDEN_SNAPSHOT) {
      // The fields the hand-written comparison skipped are in the sweep.
      for (const char* skipped :
           {"kernels[].measurement.verified",
            "kernels[].measurement.traits.vec_eff",
            "kernels[].measurement.ops_scale_to_paper",
            "kernels[].machines[].perf.t_fp64",
            "kernels[].machines[].freq_sweep[].eval.t_mem"}) {
        EXPECT_NE(std::find(paths.begin(), paths.end(), skipped), paths.end())
            << skipped;
      }
    }
  }
}

TEST(Cli, DiffFlagsMissingKernelsAsStructural) {
  TempFile a("diff_a");
  TempFile b("diff_b");
  ASSERT_EQ(run_study_to(a.path()).code, 0);
  auto results = io::study_from_json(io::load_file(a.path()));
  results.kernels.clear();
  io::save_file(b.path(), io::to_json(results));
  const auto r = run({"diff", a.path(), b.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("missing"), std::string::npos);
}

TEST(Cli, DiffAndReportRejectARepeatedKernel) {
  // AMG copied, the copy 10x slower: matching by abbreviation cannot
  // tell the two apart, so the loader refuses the file.
  auto results = io::study_from_json(io::load_file(FPR_GOLDEN_SNAPSHOT));
  auto copy = results.kernels.front();
  ASSERT_EQ(copy.info.abbrev, "AMG");
  for (auto& m : copy.machines) m.perf.seconds *= 10;
  results.kernels.push_back(std::move(copy));
  TempFile twice("twice_amg");
  io::save_file(twice.path(), io::to_json(results));
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"diff", FPR_GOLDEN_SNAPSHOT, twice.path()},
           {"report", twice.path()}}) {
    const auto r = run(args);
    EXPECT_EQ(r.code, 3) << args[0] << ": " << r.err;
    EXPECT_NE(r.err.find("kernel 'AMG' appears more than once"),
              std::string::npos)
        << r.err;
    EXPECT_TRUE(r.out.empty()) << args[0];
  }
}

TEST(Cli, DiffUsageAndIoErrors) {
  EXPECT_EQ(run({"diff"}).code, 2);                    // no files
  EXPECT_EQ(run({"diff", "only-one.json"}).code, 2);   // one file
  EXPECT_EQ(run({"diff", "a", "b", "c"}).code, 2);     // three files
  EXPECT_EQ(run({"diff", "a", "b", "--tolerance", "-1"}).code, 2);
  const auto r = run({"diff", "/nonexistent/a.json", "/nonexistent/b.json"});
  EXPECT_EQ(r.code, 3);  // bad input files get their own exit code
  EXPECT_NE(r.err.find("cannot read input file"), std::string::npos);
}

// ---------------------------------------------------------------------
// fpr report

TEST(Cli, ReportRendersEverySectionFromGoldenSnapshot) {
  const auto r = run({"report", FPR_GOLDEN_SNAPSHOT});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(r.err.empty()) << r.err;
  // Paper order: each artifact, then its comparison with the paper.
  std::vector<std::string> headings = {
      "Fig. 1 - operation mix (INT / FP32 / FP64):",
      "Fig. 1 vs paper - FP64 share on BDW [%]",
      "Fig. 2 (top) - relative Gflop/s vs BDW:",
      "Fig. 2 (bottom) - % of theoretical peak:",
      "Fig. 2 vs paper - relative Gflop/s of KNL over BDW",
      "Fig. 3 - time-to-solution speedup vs BDW:",
      "Fig. 3 vs paper - speedup of KNL over BDW",
      "Fig. 3 vs paper - speedup of KNM over KNL",
      "Fig. 4 - memory throughput [GB/s]:",
      "Flat-mode Triad ceilings",
      "Fig. 4 vs paper - cache-mode capture [GB/s]",
      "Fig. 5 - BDW roofline coordinates:",
      "Roofs: FP64 peak",
      "Fig. 6 - frequency scaling on KNL:",
      "Fig. 6 - frequency scaling on KNM:",
      "Fig. 6 - frequency scaling on BDW:",
      "Expected shape (paper Sec. IV-E)",
      "Fig. 7 - site utilization by domain + projection:",
      "Fig. 7 vs paper - projected %peak",
  };
  for (const std::string m : {"KNL", "KNM", "BDW"}) {
    headings.push_back("Table IV - measured metrics on " + m + ":");
    headings.push_back("Table IV vs paper - kernel time-to-solution on " + m +
                       " [s]:");
  }
  const std::string text = "\n" + r.out;
  std::size_t at = 0;
  for (const auto& h : headings) {
    const auto found = text.find("\n" + h, at);
    ASSERT_NE(found, std::string::npos) << "missing or out of order: " << h;
    at = found + 1;
  }
}

TEST(Cli, ReportComparesWithPaperValuesAndKeepsCsvParsable) {
  const auto r = run({"report", FPR_GOLDEN_SNAPSHOT, "--csv"});
  ASSERT_EQ(r.code, 0) << r.err;
  // Headings and notes are diagnostics in CSV mode.
  EXPECT_EQ(r.out.find("Fig. 3"), std::string::npos);
  EXPECT_NE(r.err.find("Fig. 3 vs paper"), std::string::npos);
  EXPECT_NE(r.out.find("App,Paper,Model,Model/Paper"), std::string::npos);
  // Table IV: AMG's KNL-over-BDW speedup is 10.780 s / 6.057 s, and its
  // KNL time-to-solution 6.057 s.
  EXPECT_NE(r.out.find("\nAMG,1.780,"), std::string::npos);
  EXPECT_NE(r.out.find("\nAMG,6.057,"), std::string::npos);
}

TEST(Cli, ReportIsByteIdenticalAcrossRunsAndJobCounts) {
  TempFile serial("report_jobs1"), parallel("report_jobs4");
  ASSERT_EQ(run_study_to(serial.path(), {"--jobs", "1"}).code, 0);
  ASSERT_EQ(run_study_to(parallel.path(), {"--jobs", "4"}).code, 0);
  const auto first = run({"report", serial.path()});
  ASSERT_EQ(first.code, 0) << first.err;
  EXPECT_EQ(run({"report", serial.path()}).out, first.out);
  EXPECT_EQ(run({"report", parallel.path()}).out, first.out);
}

TEST(Cli, ReportRejectsFilesThatAreNotStudyResults) {
  TempFile junk("report_junk"), pareto("report_pareto");
  {
    std::ofstream out(junk.path());
    out << "{not json";
  }
  ASSERT_EQ(run_pareto({"--rounds", "0", "--out", pareto.path()}).code, 0);
  for (const std::string& path :
       {std::string("/no/such/results.json"), junk.path(),
        std::string(FPR_EXPLORE_GOLDEN), pareto.path()}) {
    const auto r = run({"report", path});
    EXPECT_EQ(r.code, 3) << path << ": " << r.err;
    EXPECT_NE(r.err.find("fpr report: "), std::string::npos) << r.err;
    EXPECT_NE(r.err.find(path), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty()) << path;
  }
}

TEST(Cli, ReportTakesExactlyOneFile) {
  EXPECT_EQ(run({"report"}).code, 2);
  EXPECT_EQ(run({"report", "a.json", "b.json"}).code, 2);
}

}  // namespace
}  // namespace fpr::cli
