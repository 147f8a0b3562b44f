// Synthetic address-trace generators. Each proxy kernel publishes an
// AccessPatternSpec describing how its kernel touches memory; the
// hierarchy simulator replays a bounded trace drawn from these generators
// to estimate per-level hit rates (the observable PCM reports).
//
// Patterns cover the compute-pattern taxonomy of the paper's Table II:
// stream (BabelStream), strided, 3-D stencil (AMG/SW4/NICAM/QCD/...),
// gather (XSBench cross-section lookups, irregular FE), pointer-chase
// (graph/latency-bound codes), and blocked-GEMM reuse (HPL, NTChem,
// CANDLE, mVMC).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.hpp"

namespace fpr::memsim {

struct MemRef {
  std::uint64_t addr = 0;
  bool write = false;
};

/// Sequential sweep over `arrays` equal-size arrays (classic stream).
struct StreamPattern {
  std::uint64_t bytes_per_array = 0;
  int arrays = 3;          ///< triad: a = b + s*c
  int writes_per_iter = 1; ///< how many of the arrays are written
};

/// Fixed-stride walk (column access, struct-of-array hopping).
struct StridedPattern {
  std::uint64_t footprint_bytes = 0;
  std::uint32_t stride_bytes = 256;
};

/// Sweep of a 3-D grid with a symmetric neighbour stencil.
struct StencilPattern {
  std::uint64_t nx = 0, ny = 0, nz = 0;
  std::uint32_t elem_bytes = 8;
  int radius = 1;        ///< 1 => 7/27-point class
  bool full_box = true;  ///< true: 27-point box, false: 7-point star
};

/// Random gather from a lookup table plus a small sequential driver
/// stream (Monte-Carlo lookups, irregular FE indirection).
struct GatherPattern {
  std::uint64_t table_bytes = 0;
  std::uint32_t elem_bytes = 8;
  double sequential_fraction = 0.1;  ///< share of refs that stream
  /// True when every rank gathers from one global table (XSBench's
  /// unionized grid, NGSA's genome index); false when the gather target
  /// is rank-local data (particle/cell gathers) and therefore shrinks
  /// under domain decomposition.
  bool shared_table = true;
};

/// Dependent pointer chase through a shuffled ring (latency probes,
/// graph traversal, linked structures).
struct ChasePattern {
  std::uint64_t footprint_bytes = 0;
  std::uint32_t node_bytes = 64;
};

/// Cache-blocked dense kernel: repeated passes over a tile working set
/// with occasional streaming through the full matrix (GEMM-like reuse).
struct BlockedPattern {
  std::uint64_t matrix_bytes = 0;
  std::uint64_t tile_bytes = 0;
  double tile_reuse = 16.0;  ///< tile touches per streamed line
};

using Pattern = std::variant<StreamPattern, StridedPattern, StencilPattern,
                             GatherPattern, ChasePattern, BlockedPattern>;

/// A weighted mixture of patterns; weights are relative byte volumes.
struct AccessPatternSpec {
  struct Component {
    Pattern pattern;
    double weight = 1.0;
  };
  std::vector<Component> components;

  static AccessPatternSpec single(Pattern p) {
    return AccessPatternSpec{{{std::move(p), 1.0}}};
  }
};

/// The infinite, cyclic reference trace of one spec and seed.
class TraceGenerator {
 public:
  /// Throws std::invalid_argument, naming the component index and its
  /// pattern, for an empty spec, a weight that is not finite and > 0, a
  /// gather whose elem_bytes is 0 or wider than its table, or a blocked
  /// pattern whose tile_reuse is not below 2^63 (NaN included).
  explicit TraceGenerator(const AccessPatternSpec& spec, std::uint64_t seed);
  ~TraceGenerator();  // out-of-line: ComponentState is an incomplete type
  TraceGenerator(TraceGenerator&&) noexcept;
  TraceGenerator& operator=(TraceGenerator&&) noexcept;

  /// Emit the next `n` references of the trace into `out`. Mixture
  /// sampling happens for a whole block at once and the per-pattern
  /// variant dispatch is hoisted to one visit per same-component run.
  /// The trace does not depend on how it is split across calls, and it
  /// is bit-identical to the one-reference-at-a-time seed replica in
  /// tests/memsim_test.cpp for every pattern class.
  void fill(MemRef* out, std::size_t n);

 private:
  struct ComponentState;
  std::vector<std::unique_ptr<ComponentState>> comps_;
  std::vector<double> cumulative_;  ///< CDF over components
  std::vector<std::uint32_t> select_;  ///< per-block component choices
  Xoshiro256 rng_;
};

/// Human-readable tag for a pattern (diagnostics, tests).
std::string pattern_name(const Pattern& p);

}  // namespace fpr::memsim
