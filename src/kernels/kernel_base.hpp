// Shared implementation scaffolding for proxy kernels: assay plumbing,
// scaled-size helpers, and measurement assembly.
#pragma once

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/execution_context.hpp"
#include "counters/assay.hpp"
#include "counters/sink.hpp"
#include "kernels/kernel.hpp"

namespace fpr::kernels {

/// CRTP-free helper base: stores the KernelInfo and provides the
/// run-measure-verify skeleton pieces concrete kernels compose.
class KernelBase : public ProxyKernel {
 public:
  [[nodiscard]] const KernelInfo& info() const final { return info_; }

 protected:
  explicit KernelBase(KernelInfo info) : info_(std::move(info)) {}

  /// Scale an integer extent by cbrt(scale) (3-D problems) — keeps op
  /// growth roughly linear in `scale` for volume-dominated kernels.
  static std::uint64_t scaled_dim(std::uint64_t base, double scale) {
    const double s = std::cbrt(scale);
    const auto v = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(base) * s));
    return v > 4 ? v : 4;
  }

  /// Scale a count linearly.
  static std::uint64_t scaled_n(std::uint64_t base, double scale) {
    const auto v = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(base) * scale));
    return v > 1 ? v : 1;
  }

  /// Run `solver` inside an assay region bound to `ctx`, return the
  /// measured ops and seconds. Mirrors PseudoCode 1 of the paper. The
  /// orchestrating thread is bound to the context's sink for the whole
  /// region (parallel regions bind their workers themselves), so every
  /// count the solver makes — serial sections included — lands in the
  /// context and nowhere else.
  template <typename Solver>
  static counters::AssayRecorder assayed(ExecutionContext& ctx,
                                         Solver&& solver) {
    ExecutionContext::Scope bind(ctx);
    counters::AssayRecorder rec(ctx.counters());
    {
      counters::ScopedAssay scope(rec);
      solver();
    }
    return rec;
  }

  /// Verification helper: relative error check with a descriptive throw.
  void require_close(double got, double want, double rel_tol,
                     const char* what) const {
    const double denom = std::abs(want) > 1e-300 ? std::abs(want) : 1.0;
    if (!(std::abs(got - want) / denom <= rel_tol)) {
      throw std::runtime_error(info_.abbrev + ": verification failed (" +
                               std::string(what) + "): got " +
                               std::to_string(got) + ", want " +
                               std::to_string(want));
    }
  }

  void require(bool ok, const char* what) const {
    if (!ok) {
      throw std::runtime_error(info_.abbrev + ": verification failed: " +
                               std::string(what));
    }
  }

 private:
  KernelInfo info_;
};

/// Deterministic parallel reduction: each worker accumulates into its
/// own padded slot; the final sum runs in fixed slot order, so the
/// result is bit-identical across runs (the static chunking of
/// ThreadPool makes per-slot partial sums deterministic too). Atomic
/// CAS-loop reductions would sum in completion order and wobble in the
/// last ulps between runs.
class SlotReduce {
 public:
  explicit SlotReduce(unsigned slots) : slots_(slots) {}

  void add(unsigned worker, double v) { slots_[worker].value += v; }

  [[nodiscard]] double sum() const {
    double s = 0.0;
    for (const auto& slot : slots_) s += slot.value;
    return s;
  }

 private:
  struct alignas(64) Padded {
    double value = 0.0;
  };
  std::vector<Padded> slots_;
};

/// Assemble the common parts of a WorkloadMeasurement.
inline WorkloadMeasurement finish_measurement(
    const KernelInfo& info, const counters::AssayRecorder& rec,
    double ops_scale_to_paper, std::uint64_t paper_working_set,
    memsim::AccessPatternSpec paper_access, KernelTraits traits,
    double checksum) {
  WorkloadMeasurement m;
  m.name = info.abbrev;
  m.ops = rec.ops();
  // Extrapolate measured counts to the paper's input scale.
  auto scale = [&](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) *
                                      ops_scale_to_paper);
  };
  m.ops.fp64 = scale(m.ops.fp64);
  m.ops.fp32 = scale(m.ops.fp32);
  m.ops.int_ops = scale(m.ops.int_ops);
  m.ops.branches = scale(m.ops.branches);
  m.ops.bytes_read = scale(m.ops.bytes_read);
  m.ops.bytes_written = scale(m.ops.bytes_written);
  m.host_seconds = rec.seconds();
  m.working_set_bytes = paper_working_set;
  m.access = std::move(paper_access);
  m.traits = traits;
  m.verified = true;
  m.checksum = checksum;
  m.ops_scale_to_paper = ops_scale_to_paper;
  return m;
}

}  // namespace fpr::kernels
