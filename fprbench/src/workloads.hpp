// The three benchmark workloads. Each runs one user-facing `fpr`
// command at a fixed configuration in a child process (end-to-end
// metrics), checks its output against an oracle built in set-up, and,
// when traced, re-stages the same work through the layers' public entry
// points for the per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "proc.hpp"
#include "report.hpp"

namespace fprbench {

struct Options {
  std::string workload;
  /// Kernel-input seed (--kernel-seed, default --seed).
  std::uint64_t kernel_seed = 42;
  /// Seed the trace workload records its traces with (--record-seed,
  /// default --seed).
  std::uint64_t record_seed = 42;
  /// Pareto explorer-walk seed (--search-seed). Fixed by default: it
  /// decides how many candidates the search evaluates, i.e. how much
  /// work a run is, not what its inputs are.
  std::uint64_t search_seed = 2019;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files (recorded traces)
  std::string fpr;       ///< the CLI under test
};

/// What one benchmark run produced.
struct Outcome {
  std::uint64_t attempted = 0;  ///< output units checked
  std::uint64_t failed = 0;     ///< units whose check failed
  bool checks_ok = true;        ///< every check that is not a unit check
  std::vector<std::string> problems;
  std::map<std::string, double> values;  ///< metric name -> value
  std::vector<std::string> notes;        ///< extra report lines

  void fail(const std::string& what) {
    checks_ok = false;
    problems.push_back(what);
  }
};

Outcome run_study(const Options& o, Spawner& spawn);
Outcome run_trace(const Options& o, Spawner& spawn);
Outcome run_pareto(const Options& o, Spawner& spawn);

/// Name, unit and direction of every metric the benchmark reports.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace fprbench
