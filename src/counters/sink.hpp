// Context-scoped counting: the one place a kernel run's operations land.
// An ExecutionContext owns one CounterSink with a padded tally slot per
// worker it can field; instrumented code routed into the sink (via
// ScopedCounting) accumulates into its own slot with no atomics on the
// hot path, and a snapshot sums the slots in fixed order. Two contexts
// therefore never share mutable counter state: concurrent kernel runs
// cannot cross-contaminate each other's assays.
//
// There is no fallback: counting (add_* or counted<T>) on a thread that
// no ScopedCounting has bound to a sink throws std::logic_error.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "counters/op_tally.hpp"

namespace fpr::counters {

class CounterSink {
 public:
  /// One slot per worker that may count into this sink (worker 0 is the
  /// orchestrating thread).
  explicit CounterSink(unsigned slots);

  [[nodiscard]] OpTally& slot(unsigned i) { return slots_[i].tally; }
  [[nodiscard]] const OpTally& slot(unsigned i) const {
    return slots_[i].tally;
  }

  /// Sum of all slots, in fixed slot order. Only meaningful while the
  /// sink is quiescent (no in-flight parallel region) — AssayRecorder
  /// enforces that before snapshotting.
  [[nodiscard]] OpTally snapshot() const;

  // -- Parallel-region bookkeeping -----------------------------------
  // ExecutionContext brackets every parallel region with enter/exit so
  // assays can refuse to snapshot while worker threads may still be
  // counting (the mid-run hazard that used to be only a comment).
  void enter_region() { regions_.fetch_add(1, std::memory_order_relaxed); }
  void exit_region() { regions_.fetch_sub(1, std::memory_order_relaxed); }
  [[nodiscard]] bool quiescent() const {
    return regions_.load(std::memory_order_relaxed) == 0;
  }

 private:
  // Padded to a cache line so concurrent workers never false-share.
  struct alignas(64) Slot {
    OpTally tally;
  };
  std::vector<Slot> slots_;
  std::atomic<int> regions_{0};
};

namespace detail {
// The calling thread's bound sink slot, null outside any context.
// Trivially initialized so access compiles to a plain TLS load.
inline thread_local OpTally* active_tally = nullptr;

/// Throws the std::logic_error for counting on an unbound thread.
[[noreturn]] void throw_unbound_counting();
}  // namespace detail

/// RAII: route the calling thread's counting (add_* & co, counted<T>)
/// into `sink` slot `slot` for the current scope, restoring the previous
/// binding — an outer sink, or none — on exit.
class ScopedCounting {
 public:
  ScopedCounting(CounterSink& sink, unsigned slot)
      : prev_(detail::active_tally) {
    detail::active_tally = &sink.slot(slot);
  }
  ~ScopedCounting() { detail::active_tally = prev_; }
  ScopedCounting(const ScopedCounting&) = delete;
  ScopedCounting& operator=(const ScopedCounting&) = delete;

 private:
  OpTally* prev_;
};

/// The sink slot the calling thread counts into. Throws std::logic_error
/// when no ScopedCounting binds the thread. Cheap; hot kernel loops
/// should still hoist the reference out.
inline OpTally& current_tally() {
  OpTally* t = detail::active_tally;
  if (t == nullptr) [[unlikely]] {
    detail::throw_unbound_counting();
  }
  return *t;
}

// -- Inline counting helpers (the instrumentation API kernels use) -------

inline void add_fp64(std::uint64_t n) { current_tally().fp64 += n; }
inline void add_fp32(std::uint64_t n) { current_tally().fp32 += n; }
inline void add_int(std::uint64_t n) { current_tally().int_ops += n; }
inline void add_branch(std::uint64_t n) { current_tally().branches += n; }
inline void add_read_bytes(std::uint64_t n) {
  current_tally().bytes_read += n;
}
inline void add_write_bytes(std::uint64_t n) {
  current_tally().bytes_written += n;
}

}  // namespace fpr::counters
