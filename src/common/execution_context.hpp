// Run-scoped execution state: a worker pool plus a context-local counter
// sink, bundled so a kernel run owns everything mutable it touches. This
// replaces the two pieces of process-global state the repo used to lean
// on — one process-wide pool and the process-wide tally registry — which
// is what lets independent kernel runs execute concurrently without
// racing a shared job slot or cross-contaminating each other's assay
// deltas (the paper's SDE/PCM instrumentation is likewise scoped to one
// workload process per run, Sec. III-A).
//
// A context either owns its pool (the common case: one private pool per
// kernel run) or leases a caller-provided one via shared_ptr. Leases
// must be exclusive in time: a ThreadPool executes one parallel region
// at a time, so two contexts may share a pool only if they never run
// regions concurrently.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "common/thread_pool.hpp"
// ExecutionContext is the composition root: the one place that bundles
// a pool with a counter sink so every higher layer can take "the run's
// context" instead of wiring the two by hand. That makes this edge into
// counters/ deliberate — the alternative (a context type per layer)
// would duplicate the lease/region machinery everywhere.
// fpr-lint: allow(layer-violation)
#include "counters/sink.hpp"

namespace fpr {

class ExecutionContext {
 public:
  using Body = std::function<void(std::size_t, std::size_t, unsigned)>;

  /// Own a fresh pool with `threads` workers (0 = hardware concurrency).
  explicit ExecutionContext(unsigned threads = 0);

  /// Lease an existing pool (see the exclusivity note above).
  explicit ExecutionContext(std::shared_ptr<ThreadPool> pool);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Workers a region can field, caller included (pool size + 1).
  [[nodiscard]] unsigned concurrency() const { return pool_->size() + 1; }

  [[nodiscard]] ThreadPool& pool() { return *pool_; }

  /// The context's counter sink: where every count made inside this
  /// context's parallel regions (and under a Scope) accumulates.
  [[nodiscard]] counters::CounterSink& counters() { return sink_; }
  [[nodiscard]] const counters::CounterSink& counters() const {
    return sink_;
  }

  /// Run `body(begin, end, worker_id)` over [0, n) split into contiguous
  /// static chunks (deterministic op counts), every participating worker
  /// counting into its own sink slot. Blocks until all chunks complete;
  /// the first exception thrown by any chunk is rethrown on the caller.
  void parallel_for(std::size_t n, const Body& body);

  /// Same, limited to at most `max_workers` participants (mirrors running
  /// a benchmark with a smaller #threads configuration).
  void parallel_for_n(unsigned max_workers, std::size_t n, const Body& body);

  /// Convenience element-wise form: body(i) per index.
  template <typename F>
  void for_each(std::size_t n, F&& body) {
    parallel_for(n, [&body](std::size_t begin, std::size_t end, unsigned) {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }

  /// Thread-scoped binding: while a Scope is alive, the calling thread's
  /// counting (counters::add_* / counted<T>) lands in this context's
  /// sink slot 0 — the orchestrator slot — instead of the process-wide
  /// fallback. Parallel regions bind their workers automatically; a
  /// Scope covers the serial sections in between.
  class Scope {
   public:
    explicit Scope(ExecutionContext& ctx) : bind_(ctx.sink_, 0) {}

   private:
    counters::ScopedCounting bind_;
  };

 private:
  std::shared_ptr<ThreadPool> pool_;
  counters::CounterSink sink_;
};

}  // namespace fpr
