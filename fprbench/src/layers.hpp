// Timing taken from outside the program, at the layers' public entry
// points and extension points only (src/ stays untouched and free of
// wall clocks):
//
//  - TimedKernel decorates a kernels::ProxyKernel; a KernelFactory built
//    from it hands the StudyEngine/ParetoEngine kernels that log one span
//    per instrumented run;
//  - TimedSource decorates a memsim::TraceSource and times fill() inside
//    a real Hierarchy::replay (generator or file decode);
//  - staged_walk drives a Hierarchy's levels block by block through
//    Hierarchy::level_cache(i).access_many, timing each level's walk.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/kernel.hpp"
#include "kernels/workload.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/trace_source.hpp"
#include "report.hpp"
#include "study/study_engine.hpp"

namespace fprbench {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double now_s();

/// Seconds `fn` takes, once.
template <typename F>
double time_once(F&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Per-call seconds of a cheap `fn`: repeats it until `min_total_s` has
/// passed (and at least three times), then returns the median call.
template <typename F>
double time_per_call(F&& fn, double min_total_s = 0.05) {
  std::vector<double> samples;
  const double start = now_s();
  while (samples.size() < 3 || now_s() - start < min_total_s) {
    samples.push_back(time_once(fn));
  }
  return median(std::move(samples));
}

/// One instrumented kernel run as the decorator saw it.
struct KernelRun {
  std::string abbrev;
  Span span;
  fpr::kernels::WorkloadMeasurement meas;
};

/// Thread-safe log the decorated kernels append to.
class KernelLog {
 public:
  void add(KernelRun run);
  [[nodiscard]] std::vector<KernelRun> runs() const;

 private:
  mutable std::mutex mu_;
  std::vector<KernelRun> runs_;
};

/// A kernel that logs each run's span and measurement, then returns the
/// measurement unchanged.
class TimedKernel final : public fpr::kernels::ProxyKernel {
 public:
  TimedKernel(std::unique_ptr<fpr::kernels::ProxyKernel> inner,
              std::shared_ptr<KernelLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  [[nodiscard]] const fpr::kernels::KernelInfo& info() const override {
    return inner_->info();
  }
  [[nodiscard]] fpr::kernels::WorkloadMeasurement run(
      fpr::ExecutionContext& ctx,
      const fpr::kernels::RunConfig& cfg) const override;

 private:
  std::unique_ptr<fpr::kernels::ProxyKernel> inner_;
  std::shared_ptr<KernelLog> log_;
};

/// kernels::make_all(), each kernel wrapped in a TimedKernel on `log`.
fpr::study::StudyEngine::KernelFactory timed_factory(
    std::shared_ptr<KernelLog> log);

/// A trace source that times its inner source's fill().
class TimedSource final : public fpr::memsim::TraceSource {
 public:
  explicit TimedSource(fpr::memsim::TraceSource& inner) : inner_(inner) {}

  std::size_t fill(fpr::memsim::MemRef* out, std::size_t n) override;

  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] std::uint64_t records() const { return records_; }

 private:
  fpr::memsim::TraceSource& inner_;
  double seconds_ = 0.0;
  std::uint64_t records_ = 0;
};

/// Per-level walk time and input references of one staged replay.
struct LevelWalk {
  std::string name;
  double seconds = 0.0;
  std::uint64_t refs = 0;  ///< references the level was asked to walk
};

/// Hierarchy::replay re-driven from outside: blocks pulled from `src`,
/// each level filtering the block to the miss stream the next consumes,
/// with a timer around every level's access_many. The per-cache access
/// sequences, and so the statistics, equal Hierarchy::replay's.
fpr::memsim::HierarchyResult staged_walk(fpr::memsim::Hierarchy& h,
                                         fpr::memsim::TraceSource& src,
                                         std::uint64_t refs,
                                         std::uint64_t warmup,
                                         std::vector<LevelWalk>& walks);

/// True when both results carry the same per-level counts.
bool same_counts(const fpr::memsim::HierarchyResult& a,
                 const fpr::memsim::HierarchyResult& b);

}  // namespace fprbench
