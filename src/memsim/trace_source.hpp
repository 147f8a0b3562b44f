// TraceSource: the reference-stream abstraction the replay pipeline
// consumes. Hierarchy::replay pulls fixed-size blocks from
// a TraceSource; where those blocks come from — the synthetic
// TraceGenerator mixtures or an on-disk fpr-trace file — is the source's
// business. SyntheticTraceSource is a zero-cost wrapper over
// TraceGenerator (same fill(), bit-identical sequences, so every golden
// snapshot is unchanged); the file-backed source lives one layer up in
// io/trace_replay.hpp (io::FileTraceSource), because memsim defines the
// abstraction and must not know about on-disk formats — the layering
// gate (fpr-lint layer-violation) enforces that direction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "arch/cpu_spec.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/trace_gen.hpp"

namespace fpr::memsim {

/// Bounded pull interface over a reference stream. fill() produces up to
/// `n` references; a short (possibly zero) return means the stream is
/// exhausted and every later call returns 0. Synthetic sources are
/// infinite and always produce exactly `n`.
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual std::size_t fill(MemRef* out, std::size_t n) = 0;
};

/// Infinite synthetic source over its own TraceGenerator: fill() is
/// exactly TraceGenerator::fill, so the emitted sequence is bit-identical
/// to driving a generator of the same spec and seed directly.
class SyntheticTraceSource final : public TraceSource {
 public:
  SyntheticTraceSource(const AccessPatternSpec& spec, std::uint64_t seed)
      : gen_(spec, seed) {}

  std::size_t fill(MemRef* out, std::size_t n) override {
    gen_.fill(out, n);
    return n;
  }

 private:
  TraceGenerator gen_;
};

/// Replay an arbitrary source through a scaled hierarchy for `cpu`:
/// the trace-file counterpart of simulate_pattern. `warmup` references
/// fill the caches uncounted, then up to `refs` are measured (fewer if
/// the source runs dry — the result's `refs` reports the measured
/// count). `scale_shift` shrinks the cache capacities only; recorded
/// addresses replay as-is, so replay a recorded synthetic trace at the
/// shift it was recorded with.
HierarchyResult simulate_trace(const arch::CpuSpec& cpu, TraceSource& src,
                               std::uint64_t refs, std::uint64_t warmup,
                               unsigned scale_shift = 0);

}  // namespace fpr::memsim
