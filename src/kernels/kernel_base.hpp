// Shared implementation scaffolding for proxy kernels: assay plumbing,
// scaled-size helpers, verification, measurement assembly, and the run
// function of every catalogue row in registry.cpp.
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

/// Scale an integer extent by cbrt(scale) (3-D problems) — keeps op
/// growth roughly linear in `scale` for volume-dominated kernels.
inline std::uint64_t scaled_dim(std::uint64_t base, double scale) {
  const double s = std::cbrt(scale);
  const auto v = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(base) * s));
  return v > 4 ? v : 4;
}

/// Scale a count linearly.
inline std::uint64_t scaled_n(std::uint64_t base, double scale) {
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
counters::AssayRecorder assayed(ExecutionContext& ctx, Solver&& solver) {
  ExecutionContext::Scope bind(ctx);
  counters::AssayRecorder rec(ctx.counters());
  {
    counters::ScopedAssay scope(rec);
    solver();
  }
  return rec;
}

/// Verification helper: relative error check with a descriptive throw
/// naming the kernel.
inline void require_close(const KernelInfo& info, double got, double want,
                          double rel_tol, const char* what) {
  const double denom = std::abs(want) > 1e-300 ? std::abs(want) : 1.0;
  if (!(std::abs(got - want) / denom <= rel_tol)) {
    throw std::runtime_error(info.abbrev + ": verification failed (" +
                             std::string(what) + "): got " +
                             std::to_string(got) + ", want " +
                             std::to_string(want));
  }
}

inline void require(const KernelInfo& info, bool ok, const char* what) {
  if (!ok) {
    throw std::runtime_error(info.abbrev + ": verification failed: " +
                             std::string(what));
  }
}

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

/// The run functions of the catalogue rows (registry.cpp), in paper
/// order; each is defined in its kernel's .cpp. A run function does what
/// ProxyKernel::run documents, with `info` its row's KernelInfo: init ->
/// assayed solver -> verify -> finish_measurement.
WorkloadMeasurement run_amg(const KernelInfo& info, ExecutionContext& ctx,
                            const RunConfig& cfg);
WorkloadMeasurement run_candle(const KernelInfo& info, ExecutionContext& ctx,
                               const RunConfig& cfg);
WorkloadMeasurement run_comd(const KernelInfo& info, ExecutionContext& ctx,
                             const RunConfig& cfg);
WorkloadMeasurement run_laghos(const KernelInfo& info, ExecutionContext& ctx,
                               const RunConfig& cfg);
WorkloadMeasurement run_macsio(const KernelInfo& info, ExecutionContext& ctx,
                               const RunConfig& cfg);
WorkloadMeasurement run_miniamr(const KernelInfo& info, ExecutionContext& ctx,
                                const RunConfig& cfg);
WorkloadMeasurement run_minife(const KernelInfo& info, ExecutionContext& ctx,
                               const RunConfig& cfg);
WorkloadMeasurement run_minitri(const KernelInfo& info, ExecutionContext& ctx,
                                const RunConfig& cfg);
WorkloadMeasurement run_nekbone(const KernelInfo& info, ExecutionContext& ctx,
                                const RunConfig& cfg);
WorkloadMeasurement run_sw4lite(const KernelInfo& info, ExecutionContext& ctx,
                                const RunConfig& cfg);
WorkloadMeasurement run_swfft(const KernelInfo& info, ExecutionContext& ctx,
                              const RunConfig& cfg);
WorkloadMeasurement run_xsbench(const KernelInfo& info, ExecutionContext& ctx,
                                const RunConfig& cfg);
WorkloadMeasurement run_ffb(const KernelInfo& info, ExecutionContext& ctx,
                            const RunConfig& cfg);
WorkloadMeasurement run_ffvc(const KernelInfo& info, ExecutionContext& ctx,
                             const RunConfig& cfg);
WorkloadMeasurement run_modylas(const KernelInfo& info, ExecutionContext& ctx,
                                const RunConfig& cfg);
WorkloadMeasurement run_mvmc(const KernelInfo& info, ExecutionContext& ctx,
                             const RunConfig& cfg);
WorkloadMeasurement run_ngsa(const KernelInfo& info, ExecutionContext& ctx,
                             const RunConfig& cfg);
WorkloadMeasurement run_nicam(const KernelInfo& info, ExecutionContext& ctx,
                              const RunConfig& cfg);
WorkloadMeasurement run_ntchem(const KernelInfo& info, ExecutionContext& ctx,
                               const RunConfig& cfg);
WorkloadMeasurement run_qcd(const KernelInfo& info, ExecutionContext& ctx,
                            const RunConfig& cfg);
WorkloadMeasurement run_hpl(const KernelInfo& info, ExecutionContext& ctx,
                            const RunConfig& cfg);
WorkloadMeasurement run_hpcg(const KernelInfo& info, ExecutionContext& ctx,
                             const RunConfig& cfg);
WorkloadMeasurement run_babl2(const KernelInfo& info, ExecutionContext& ctx,
                              const RunConfig& cfg);
WorkloadMeasurement run_babl14(const KernelInfo& info, ExecutionContext& ctx,
                               const RunConfig& cfg);

}  // namespace fpr::kernels
