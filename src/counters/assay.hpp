// Assay regions — our rendering of the paper's PseudoCode 1:
//
//   #define START_ASSAY {measure time; toggle on [PCM | SDE | VTune]}
//   #define STOP_ASSAY  {measure time; toggle off ...}
//
// The paper injects START/STOP around each benchmark's solver loop so
// that *only the kernel* is measured, excluding initialization and
// post-processing. AssayRecorder provides the same: between start() and
// stop() it accumulates wall time and the delta of its counter sink's
// operation tally. Multiple start/stop intervals accumulate (solver
// loops).
//
// A recorder is bound to one CounterSink — the ExecutionContext the
// kernel runs in — and snapshots only that sink, so concurrent runs in
// other contexts never leak into the delta.
#pragma once

#include <stdexcept>
#include <string>

#include "common/timer.hpp"
#include "counters/op_tally.hpp"
#include "counters/sink.hpp"

namespace fpr::counters {

class AssayRecorder {
 public:
  /// Bind to the sink of the context the kernel executes in.
  explicit AssayRecorder(const CounterSink& sink) : sink_(&sink) {}

  /// Begin a measured interval. Must not already be measuring, and the
  /// sink must be quiescent: starting while the context has an in-flight
  /// parallel region would race the workers' slot updates and tear the
  /// snapshot — a mis-nested assay, rejected loudly.
  void start() {
    if (running_) throw std::logic_error("assay already started");
    require_quiescent("start");
    running_ = true;
    begin_ops_ = sink_->snapshot();
    timer_.reset();
  }

  /// End the current interval, folding time and ops into the totals.
  void stop() {
    if (!running_) throw std::logic_error("assay not started");
    require_quiescent("stop");
    seconds_ += timer_.seconds();
    ops_ += sink_->snapshot() - begin_ops_;
    running_ = false;
    ++intervals_;
  }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] const OpTally& ops() const { return ops_; }
  [[nodiscard]] unsigned intervals() const { return intervals_; }

 private:
  void require_quiescent(const char* what) const {
    if (!sink_->quiescent()) {
      throw std::logic_error(
          std::string("assay ") + what +
          "() inside an in-flight parallel region: worker threads are "
          "not quiescent");
    }
  }

  const CounterSink* sink_;
  bool running_ = false;
  double seconds_ = 0.0;
  unsigned intervals_ = 0;
  OpTally begin_ops_;
  OpTally ops_;
  fpr::WallTimer timer_;
};

/// RAII interval: starts on construction, stops on destruction (also on
/// exception, so a throwing solver still yields a consistent recorder).
class ScopedAssay {
 public:
  explicit ScopedAssay(AssayRecorder& rec) : rec_(rec) { rec_.start(); }
  ~ScopedAssay() {
    if (rec_.running()) {
      // Destructors are noexcept: a quiescence violation here (another
      // thread left a region of this context in flight — impossible with
      // the synchronous parallel_for, so exotic misuse) must not escape
      // and terminate. start() remains the loud gate; direct stop()
      // calls still throw.
      try {
        rec_.stop();
      } catch (const std::logic_error&) {  // NOLINT(bugprone-empty-catch)
      }
    }
  }
  ScopedAssay(const ScopedAssay&) = delete;
  ScopedAssay& operator=(const ScopedAssay&) = delete;

 private:
  AssayRecorder& rec_;
};

}  // namespace fpr::counters
