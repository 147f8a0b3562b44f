// The proxy-kernel interface. Each of the paper's 20 proxy/mini-apps and
// 3 reference benchmarks (Sec. II-B) is re-implemented as a ProxyKernel:
// a self-contained, instrumented, self-verifying computational kernel.
//
// A kernel run really executes the computation (on the host, at a reduced
// input scale chosen to finish in well under a second), counts its
// operations through the counters substrate, verifies its own result, and
// reports a WorkloadMeasurement whose op counts are extrapolated to the
// paper's documented input scale via the kernel's analytic complexity
// ratio (`ops_scale_to_paper`). Working sets and access-pattern
// footprints are reported at *paper scale*, because they are what the
// machine model's capacity decisions (does it fit MCDRAM?) depend on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernels/workload.hpp"

namespace fpr {
class ExecutionContext;
}

namespace fpr::kernels {

/// Benchmark suite of origin (paper Sec. II-B).
enum class Suite { ecp, riken, reference };

/// Scientific/engineering domain (paper Table II).
enum class Domain {
  physics,
  bioscience,
  physics_bioscience,
  physics_chemistry,
  material_science,
  geoscience,
  math_cs,
  engineering,
  chemistry,
  lattice_qcd,
  reference
};

/// Compute pattern (paper Table II, classifiers of Hashimoto et al.).
enum class ComputePattern {
  stencil,
  dense_matrix,
  sparse_matrix,
  n_body,
  irregular,
  fft,
  stream,
  io
};

[[nodiscard]] std::string_view to_string(Suite s);
[[nodiscard]] std::string_view to_string(Domain d);
[[nodiscard]] std::string_view to_string(ComputePattern p);

/// Static identification of a kernel (one row of Table II).
struct KernelInfo {
  std::string name;     ///< "Algebraic multi-grid"
  std::string abbrev;   ///< "AMG"
  Suite suite = Suite::ecp;
  Domain domain = Domain::physics;
  ComputePattern pattern = ComputePattern::stencil;
  std::string language;    ///< original implementation language (Table II)
  std::string paper_input; ///< the input documented in Sec. II-B
};

/// Execution configuration for a kernel run.
struct RunConfig {
  /// Worker threads (0 = all available). Sizes the context that
  /// run(cfg) builds; run(ctx, cfg) uses every worker of `ctx` instead.
  unsigned threads = 0;
  /// Input scale multiplier relative to the kernel's standard reduced
  /// input; tests use < 1. Must be > 0.
  double scale = 1.0;
  /// PRNG seed for synthetic inputs (fixed default => repeatable runs).
  std::uint64_t seed = 42;
};

class ProxyKernel {
 public:
  virtual ~ProxyKernel() = default;

  [[nodiscard]] virtual const KernelInfo& info() const = 0;

  /// Execute the kernel (init -> assayed solver -> verify) inside `ctx`
  /// and report. The run parallelizes over every worker of the context's
  /// pool and counts into the context's sink, so concurrent runs in
  /// separate contexts are fully isolated; of `cfg` it reads only
  /// `scale` and `seed`. Throws std::runtime_error if self-verification
  /// fails.
  [[nodiscard]] virtual WorkloadMeasurement run(
      ExecutionContext& ctx, const RunConfig& cfg) const = 0;

  /// Convenience: run inside a fresh private context sized to
  /// cfg.threads. The context (and its worker pool) lives for this one
  /// call — callers running kernels repeatedly should construct one
  /// ExecutionContext and use the overload above, as methodology's
  /// repeat loops do.
  [[nodiscard]] WorkloadMeasurement run(const RunConfig& cfg) const;
};

/// All kernels in the paper's presentation order (AMG .. HPL, HPCG,
/// BabelStream-2GiB, BabelStream-14GiB).
std::vector<std::unique_ptr<ProxyKernel>> make_all();

/// Factory by abbreviation ("AMG", "HPL", ...). Throws on unknown names.
std::unique_ptr<ProxyKernel> make(std::string_view abbrev);

/// Abbreviations in paper order.
std::vector<std::string> all_abbrevs();

}  // namespace fpr::kernels
