// Benchmark-side helpers with no knowledge of any workload: order
// statistics, self time, the Table IV paper anchor, the host
// fingerprint, and the metric report (a human-readable table followed
// by the one-line JSON result the benchmark contract asks for).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "study/paper_data.hpp"

namespace fprbench {

/// Median of `v` (mean of the middle pair for even sizes). 0 when empty.
double median(std::vector<double> v);

/// First, second and third quartile of `v` by the "exclusive" method of
/// Python's statistics.quantiles(v, n=4), so spreads computed here match
/// the ones an outside checker computes. Needs at least one value; a
/// single value is its own quartiles.
struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/// (q3 - q1) / median: the run-to-run spread as a share of the median.
double relative_spread(const std::vector<double>& v);

/// A closed-open time interval [start, end) in seconds.
struct Span {
  double start = 0.0;
  double end = 0.0;
  [[nodiscard]] double duration() const { return end > start ? end - start : 0.0; }
};

/// Self time of an outer call that makes one inner call: the outer
/// seconds not spent in the inner call, floored at 0 (timings of the two
/// come from different runs, so noise can invert them).
double self_time(double outer_s, double inner_s);

/// Model times-to-solution of one kernel on the paper's three machines.
struct ModelTimes {
  std::string abbrev;
  double t_knl = 0.0;
  double t_knm = 0.0;
  double t_bdw = 0.0;
};

/// The Table IV anchor: for every kernel with a paper row, the mean of
/// |ln(model/paper)| over the KNL-over-BDW and KNM-over-KNL speedups;
/// `mean` averages every such term over all matched kernels. Kernels
/// without a row, or with a non-positive time on either side, are
/// skipped and listed in `skipped`.
struct Table4Error {
  double mean = 0.0;
  std::vector<std::pair<std::string, double>> per_kernel;
  std::vector<std::string> skipped;
};
Table4Error table4_log_error(const std::vector<ModelTimes>& model,
                             const std::vector<fpr::study::PaperRow>& paper);

/// The host the numbers were taken on.
struct HostFingerprint {
  unsigned hw_threads = 0;
  bool avx2 = false;
  std::string compiler;
  std::string build_type;
};
HostFingerprint host_fingerprint();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal that round-trips `v` (all its digits); non-finite
/// values, which JSON cannot carry, print as 0.
std::string format_number(double v);

/// The contract's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace fprbench
