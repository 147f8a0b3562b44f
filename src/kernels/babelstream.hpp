// BabelStream (BABL): the paper's memory-subsystem reference benchmark
// (Sec. II-B3c). Copy / Mul / Add / Triad / Dot over three large vectors.
// Two paper configurations: 2 GiB vectors (fit in MCDRAM) and 14 GiB
// vectors (exceed MCDRAM) — Sec. IV-C uses them to establish the
// cache-mode bandwidth ceilings.
#pragma once

#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

class BabelStream final : public KernelBase {
 public:
  /// `paper_gib` = per-vector size in the paper configuration (2 or 14).
  explicit BabelStream(double paper_gib);

  using ProxyKernel::run;
  [[nodiscard]] WorkloadMeasurement run(
      ExecutionContext& ctx, const RunConfig& cfg) const override;

 private:
  double paper_gib_;
};

}  // namespace fpr::kernels
