// fprbench: the repository benchmark runner.
//
//   fprbench --workload study|trace|pareto [--seed N] [--seconds S]
//            [--trace 0|1] [--kernel-seed N] [--record-seed N]
//            [--search-seed N] [--work-dir DIR] [--fpr PATH]
//
// --trace 0 measures the end-to-end metrics; --trace 1 the per-layer
// ones. The report goes to stdout, last line the JSON result. Exits 1
// when any output check fails, 2 on bad arguments.
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>

#include "proc.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

std::uint64_t parse_u64(const std::string& arg, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(arg + " wants a non-negative integer, got '" +
                                text + "'");
  }
  return std::stoull(text);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fprbench;
  Options o;
  bool kernel_seed_set = false, record_seed_set = false;
  std::uint64_t seed = 42;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      const std::string v = argv[++i];
      if (arg == "--workload") {
        o.workload = v;
      } else if (arg == "--seed") {
        seed = parse_u64(arg, v);
      } else if (arg == "--seconds") {
        o.seconds = static_cast<double>(parse_u64(arg, v));
      } else if (arg == "--trace") {
        if (v != "0" && v != "1") throw std::invalid_argument("--trace wants 0 or 1");
        o.trace = v == "1";
      } else if (arg == "--kernel-seed") {
        o.kernel_seed = parse_u64(arg, v);
        kernel_seed_set = true;
      } else if (arg == "--record-seed") {
        o.record_seed = parse_u64(arg, v);
        record_seed_set = true;
      } else if (arg == "--search-seed") {
        o.search_seed = parse_u64(arg, v);
      } else if (arg == "--work-dir") {
        o.work_dir = v;
      } else if (arg == "--fpr") {
        o.fpr = v;
      } else {
        throw std::invalid_argument("unknown option " + arg);
      }
    }
    if (o.workload != "study" && o.workload != "trace" &&
        o.workload != "pareto") {
      throw std::invalid_argument("--workload wants study, trace or pareto");
    }
  } catch (const std::exception& e) {
    std::cerr << "fprbench: " << e.what() << "\n";
    return 2;
  }
  if (!kernel_seed_set) o.kernel_seed = seed;
  if (!record_seed_set) o.record_seed = seed;
  if (o.fpr.empty()) o.fpr = self_dir() + "/fpr";
  if (o.work_dir.empty()) o.work_dir = self_dir() + "/work";

  Outcome out;
  try {
    // Forked before any set-up, so commands do not inherit the runner's
    // grown peak RSS.
    Spawner spawn;
    out = o.workload == "study"   ? run_study(o, spawn)
          : o.workload == "trace" ? run_trace(o, spawn)
                                  : run_pareto(o, spawn);
    // A trivial command shows the spawned peak RSS is the command's own.
    const ProcResult list = spawn.run({o.fpr, "list"});
    out.notes.push_back("spawn check: `fpr list` peak RSS " +
                        format_number(list.peak_rss_mb) +
                        " MB; the runner's own peak RSS " +
                        format_number(self_peak_rss_mb()) + " MB");
  } catch (const std::exception& e) {
    std::cerr << "fprbench: " << o.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  const HostFingerprint host = host_fingerprint();
  out.values["bench.hw_threads"] = host.hw_threads;
  out.values["bench.avx2"] = host.avx2 ? 1.0 : 0.0;
  const bool correct = out.checks_ok && out.failed == 0;

  std::cout << "fprbench " << o.workload << " (kernel seed " << o.kernel_seed
            << ", record seed " << o.record_seed << ", search seed "
            << o.search_seed << ", " << (o.trace ? "traced" : "untraced")
            << ")\nhost: " << host.hw_threads << " hardware threads, avx2 "
            << (host.avx2 ? "yes" : "no") << ", " << host.compiler << ", "
            << host.build_type << " build\n";
  std::cout << "error_ratio " << format_number(
                   out.attempted > 0 ? static_cast<double>(out.failed) /
                                           static_cast<double>(out.attempted)
                                     : 0.0)
            << " (" << out.failed << " of " << out.attempted
            << " output units failed)\n";
  for (const auto& p : out.problems) std::cout << "problem: " << p << "\n";
  for (const auto& n : out.notes) std::cout << n << "\n";

  std::vector<Metric> metrics;
  const auto& specs = o.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& spec : specs) {
    const auto it = out.values.find(spec.name);
    const double value = it != out.values.end() ? it->second : 0.0;
    metrics.push_back({spec.name, value, spec.unit});
    std::cout << "  " << spec.name << " = " << format_number(value) << " "
              << spec.unit << "\n";
  }
  std::cout << result_json(correct, out.attempted, out.failed, metrics)
            << std::endl;
  return correct ? 0 : 1;
}
