// Self-tests of the benchmark's own arithmetic on hand-made inputs: the
// order statistics the spreads are judged by, self time, the
// Table IV log error and the result line. Exits nonzero on any failure.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1 + std::fabs(b)); }

void test_median() {
  using fprbench::median;
  check(median({}) == 0.0, "median of nothing is 0");
  check(median({3.0}) == 3.0, "median of one value");
  check(median({5.0, 1.0, 3.0}) == 3.0, "odd median ignores order");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages the middle");
}

void test_quartiles() {
  using fprbench::quartiles;
  // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  check(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
        "quartiles of 1..10 match statistics.quantiles");
  // Python: statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
  const auto q4 = quartiles({1, 2, 3, 4});
  check(near(q4.q1, 1.25) && near(q4.q2, 2.5) && near(q4.q3, 3.75),
        "quartiles of 1..4 match statistics.quantiles");
  // Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = quartiles({2, 1});
  check(near(q2.q1, 0.75) && near(q2.q2, 1.5) && near(q2.q3, 2.25),
        "quartiles of two values extrapolate like statistics.quantiles");
  const auto q1 = quartiles({7});
  check(q1.q1 == 7 && q1.q3 == 7, "one value is its own quartiles");
  check(near(fprbench::relative_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
             (8.25 - 2.75) / 5.5),
        "relative spread is (q3 - q1) / median");
  check(fprbench::relative_spread({2, 2, 2}) == 0.0, "constant values have no spread");
}

void test_self_time() {
  using fprbench::self_time;
  check(near(self_time(1.25, 1.0), 0.25) && self_time(1.0, 1.5) == 0.0,
        "self time is outer minus inner, floored at 0");
}

void test_table4() {
  using fprbench::ModelTimes;
  fpr::study::PaperRow a;
  a.abbrev = "A";
  a.t2sol_knl = 2.0;  // paper: KNL over BDW = 4 / 2 = 2, KNM over KNL = 2 / 1 = 2
  a.t2sol_knm = 1.0;
  a.t2sol_bdw = 4.0;
  fpr::study::PaperRow b = a;
  b.abbrev = "B";
  const std::vector<fpr::study::PaperRow> paper = {a, b};

  // A matches the paper exactly; B's KNL-over-BDW speedup is e times the
  // paper's and its KNM-over-KNL speedup is the paper's.
  const double e = std::exp(1.0);
  const std::vector<ModelTimes> model = {
      {"A", 2.0, 1.0, 4.0},
      {"B", 1.0, 0.5, 2.0 * e},
      {"C", 1.0, 1.0, 1.0},  // no paper row
      {"A", 0.0, 1.0, 1.0},  // degenerate time
  };
  const auto r = fprbench::table4_log_error(model, paper);
  check(r.per_kernel.size() == 2, "two kernels matched");
  check(r.per_kernel.size() == 2 && near(r.per_kernel[0].second, 0.0),
        "a perfect match has no error");
  check(r.per_kernel.size() == 2 && near(r.per_kernel[1].second, 0.5),
        "per-kernel error averages the two speedup terms");
  check(near(r.mean, 0.25), "the mean is over every speedup term");
  check(r.skipped.size() == 2, "kernels without a usable row are skipped");
  // A model that is uniformly off by a factor in time keeps its speedups.
  const auto scaled = fprbench::table4_log_error({{"A", 20.0, 10.0, 40.0}}, paper);
  check(near(scaled.mean, 0.0), "speedups are scale-free");
}

void test_result_json() {
  check(fprbench::format_number(0.1) == "0.1", "shortest round-trip digits");
  check(fprbench::format_number(1.0 / 3.0) == "0.3333333333333333",
        "all the digits of a measured value");
  check(fprbench::format_number(NAN) == "0", "non-finite prints as 0");
  const std::string line = fprbench::result_json(
      true, 3, 0, {{"wall_s", 1.5, "s"}, {"setup_s", 0.25, "s"}});
  check(line ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"setup_s\": "
            "{\"value\": 0.25, \"unit\": \"s\"}}}",
        "result line layout");
}

}  // namespace

int main() {
  test_median();
  test_quartiles();
  test_self_time();
  test_table4();
  test_result_json();
  if (failures == 0) std::cout << "fprbench self-tests passed\n";
  return failures == 0 ? 0 : 1;
}
