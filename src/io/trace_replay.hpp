// Trace-file replay: the io-layer glue between recorded fpr-trace files
// and the memsim replay pipeline. record_trace writes a synthetic
// reference stream to a file; FileTraceSource adapts an io::TraceReader
// to the memsim::TraceSource pull interface; replay_trace_cached adds
// SimCache memoization keyed by trace content digest. The last two lived
// in memsim::trace_source until the layering gate
// (fpr-lint layer-violation) made the dependency direction explicit:
// memsim defines the TraceSource abstraction and must not know about
// file formats; io sits above memsim and may implement sources over
// its readers.
#pragma once

#include <cstdint>
#include <string>

#include "io/trace_format.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/sim_cache.hpp"
#include "memsim/trace_source.hpp"

namespace fpr::io {

/// Records the first `records` references of the synthetic stream for
/// `scaled` (a spec already capacity-scaled by memsim::scale_spec) at
/// generator seed `seed` to the trace file `path`: the stream
/// Hierarchy::replay walks for that spec, so replaying the file
/// reproduces the synthetic replay bit for bit. Throws
/// io::TraceFormatError when the file cannot be written, and a failed
/// recording leaves no file behind.
void record_trace(const std::string& path,
                  const memsim::AccessPatternSpec& scaled, std::uint64_t seed,
                  std::uint64_t records);

/// Streaming decode of an on-disk fpr-trace file (io::TraceReader).
/// Finite: fill() returns short once the file's records are consumed.
/// Construction and decoding throw io::TraceFormatError on missing,
/// wrong-magic, or truncated files.
class FileTraceSource final : public memsim::TraceSource {
 public:
  explicit FileTraceSource(const std::string& path) : reader_(path) {}

  std::size_t fill(memsim::MemRef* out, std::size_t n) override {
    return reader_.read(out, n);
  }

  [[nodiscard]] const TraceInfo& info() const { return reader_.info(); }

 private:
  TraceReader reader_;
};

/// memsim::simulate_trace over a trace file with memoization: the
/// replay keys by (hierarchy geometry, trace content digest, refs,
/// warmup, scale shift) — see SimCache::trace_key — so repeated
/// scorings of one trace across machines/commands decode and simulate
/// once per distinct geometry. Bit-identical with or without a cache.
/// Throws io::TraceFormatError on unreadable or malformed files.
memsim::HierarchyResult replay_trace_cached(
    memsim::SimCache* cache, const arch::CpuSpec& cpu,
    const std::string& path, std::uint64_t refs, std::uint64_t warmup,
    unsigned scale_shift = 0);

}  // namespace fpr::io
