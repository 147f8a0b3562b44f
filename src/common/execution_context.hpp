// Run-scoped execution state: a worker pool plus a context-local counter
// sink, bundled so a kernel run owns everything mutable it touches. This
// replaces the two pieces of process-global state the repo used to lean
// on — one process-wide pool and the process-wide tally registry — which
// is what lets independent kernel runs execute concurrently without
// racing a shared job slot or cross-contaminating each other's assay
// deltas (the paper's SDE/PCM instrumentation is likewise scoped to one
// workload process per run, Sec. III-A).
//
// A context owns its pool; a kernel run in it parallelizes over every
// worker of that pool, so the context's size is the run's worker count.
#pragma once

#include <cstddef>
#include <functional>

#include "common/thread_pool.hpp"
// ExecutionContext is the composition root: the one place that bundles
// a pool with a counter sink so every higher layer can take "the run's
// context" instead of wiring the two by hand. That makes this edge into
// counters/ deliberate — the alternative (a context type per layer)
// would duplicate the region machinery everywhere.
// fpr-lint: allow(layer-violation)
#include "counters/sink.hpp"

namespace fpr {

class ExecutionContext {
 public:
  using Body = std::function<void(std::size_t, std::size_t, unsigned)>;

  /// Own a fresh pool with `threads` workers (0 = hardware concurrency).
  explicit ExecutionContext(unsigned threads = 0);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Workers a region fields, caller included (pool size + 1).
  [[nodiscard]] unsigned concurrency() const { return pool_.size() + 1; }

  /// The context's counter sink: where every count made inside this
  /// context's parallel regions (and under a Scope) accumulates.
  [[nodiscard]] counters::CounterSink& counters() { return sink_; }
  [[nodiscard]] const counters::CounterSink& counters() const {
    return sink_;
  }

  /// Run `body(begin, end, worker_id)` over [0, n) split into contiguous
  /// static chunks, one per worker (deterministic op counts), every
  /// worker counting into its own sink slot. Blocks until all chunks
  /// complete; the first exception thrown by any chunk is rethrown on
  /// the caller.
  void parallel_for(std::size_t n, const Body& body);

  /// Convenience element-wise form: body(i) per index.
  template <typename F>
  void for_each(std::size_t n, F&& body) {
    parallel_for(n, [&body](std::size_t begin, std::size_t end, unsigned) {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }

  /// Thread-scoped binding: while a Scope is alive, the calling thread's
  /// counting (counters::add_* / counted<T>) lands in this context's
  /// sink slot 0 — the orchestrator slot. Parallel regions bind their
  /// workers automatically; a Scope covers the serial sections in
  /// between. Counting with neither throws std::logic_error.
  class Scope {
   public:
    explicit Scope(ExecutionContext& ctx) : bind_(ctx.sink_, 0) {}

   private:
    counters::ScopedCounting bind_;
  };

 private:
  ThreadPool pool_;
  counters::CounterSink sink_;
};

}  // namespace fpr
