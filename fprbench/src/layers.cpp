#include "layers.hpp"

#include <algorithm>
#include <chrono>

namespace fprbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

void KernelLog::add(KernelRun run) {
  std::lock_guard lock(mu_);
  runs_.push_back(std::move(run));
}

std::vector<KernelRun> KernelLog::runs() const {
  std::lock_guard lock(mu_);
  return runs_;
}

fpr::kernels::WorkloadMeasurement TimedKernel::run(
    fpr::ExecutionContext& ctx, const fpr::kernels::RunConfig& cfg) const {
  KernelRun r;
  r.abbrev = inner_->info().abbrev;
  r.span.start = now_s();
  auto meas = inner_->run(ctx, cfg);
  r.span.end = now_s();
  r.meas = meas;
  log_->add(std::move(r));
  return meas;
}

fpr::study::StudyEngine::KernelFactory timed_factory(
    std::shared_ptr<KernelLog> log) {
  return [log] {
    std::vector<std::unique_ptr<fpr::kernels::ProxyKernel>> out;
    for (auto& k : fpr::kernels::make_all()) {
      out.push_back(std::make_unique<TimedKernel>(std::move(k), log));
    }
    return out;
  };
}

std::size_t TimedSource::fill(fpr::memsim::MemRef* out, std::size_t n) {
  const double t0 = now_s();
  const std::size_t got = inner_.fill(out, n);
  seconds_ += now_s() - t0;
  records_ += got;
  return got;
}

fpr::memsim::HierarchyResult staged_walk(fpr::memsim::Hierarchy& h,
                                         fpr::memsim::TraceSource& src,
                                         std::uint64_t refs,
                                         std::uint64_t warmup,
                                         std::vector<LevelWalk>& walks) {
  const std::size_t levels = h.num_levels();
  walks.assign(levels, {});
  for (std::size_t i = 0; i < levels; ++i) {
    walks[i].name = h.level_name(i);
    h.level_cache(i).clear();
  }
  std::vector<fpr::memsim::MemRef> block(1024);
  auto run = [&](std::uint64_t count) -> std::uint64_t {
    std::uint64_t done = 0;
    while (count > 0) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uint64_t>(count, block.size()));
      const std::size_t n = src.fill(block.data(), want);
      if (n == 0) break;
      std::size_t live = n;
      for (std::size_t i = 0; i < levels && live > 0; ++i) {
        const double t0 = now_s();
        const std::size_t next = h.level_cache(i).access_many(block.data(), live);
        walks[i].seconds += now_s() - t0;
        walks[i].refs += live;
        live = next;
      }
      count -= n;
      done += n;
    }
    return done;
  };
  run(warmup);
  for (std::size_t i = 0; i < levels; ++i) h.level_cache(i).reset_stats();
  fpr::memsim::HierarchyResult r;
  r.refs = run(refs);
  for (std::size_t i = 0; i < levels; ++i) {
    r.levels.push_back({h.level_name(i), h.level_cache(i).stats()});
  }
  return r;
}

bool same_counts(const fpr::memsim::HierarchyResult& a,
                 const fpr::memsim::HierarchyResult& b) {
  if (a.refs != b.refs || a.levels.size() != b.levels.size()) return false;
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    const auto& x = a.levels[i];
    const auto& y = b.levels[i];
    if (x.name != y.name || x.stats.hits != y.stats.hits ||
        x.stats.misses != y.stats.misses ||
        x.stats.writebacks != y.stats.writebacks) {
      return false;
    }
  }
  return true;
}

}  // namespace fprbench
