#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <thread>

namespace fprbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1 positions, the
  // i-th cut point interpolated between data[j - 1] and data[j], with j
  // clamped to 1 .. n - 1.
  const long n = 4;
  const long m = ld + 1;
  double cut[3] = {0.0, 0.0, 0.0};
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(n - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1], cut[2]};
}

double relative_spread(const std::vector<double>& v) {
  const double mid = median(v);
  if (mid == 0.0) return 0.0;
  const Quartiles q = quartiles(v);
  return (q.q3 - q.q1) / std::fabs(mid);
}

double self_time(double outer_s, double inner_s) {
  return std::max(0.0, outer_s - inner_s);
}

Table4Error table4_log_error(const std::vector<ModelTimes>& model,
                             const std::vector<fpr::study::PaperRow>& paper) {
  Table4Error out;
  double sum = 0.0;
  std::size_t terms = 0;
  const fpr::study::PaperDerived derived;
  for (const ModelTimes& m : model) {
    const auto row = std::find_if(
        paper.begin(), paper.end(),
        [&](const fpr::study::PaperRow& r) { return r.abbrev == m.abbrev; });
    const bool usable = row != paper.end() && m.t_knl > 0.0 &&
                        m.t_knm > 0.0 && m.t_bdw > 0.0 && row->t2sol_knl > 0.0 &&
                        row->t2sol_knm > 0.0 && row->t2sol_bdw > 0.0;
    if (!usable) {
      out.skipped.push_back(m.abbrev);
      continue;
    }
    const double knl_bdw = std::fabs(
        std::log((m.t_bdw / m.t_knl) / derived.speedup_knl_vs_bdw(*row)));
    const double knm_knl = std::fabs(
        std::log((m.t_knl / m.t_knm) / derived.knm_vs_knl(*row)));
    out.per_kernel.emplace_back(m.abbrev, 0.5 * (knl_bdw + knm_knl));
    sum += knl_bdw + knm_knl;
    terms += 2;
  }
  out.mean = terms > 0 ? sum / static_cast<double>(terms) : 0.0;
  return out;
}

HostFingerprint host_fingerprint() {
  HostFingerprint h;
  h.hw_threads = std::thread::hardware_concurrency();
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  h.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = FPRBENCH_BUILD_TYPE;
  return h;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": ";
    s += format_number(metrics[i].value);
    s += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace fprbench
