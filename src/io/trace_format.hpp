// fpr-trace v1: the on-disk address-trace format behind `fpr trace`.
//
// A trace file is a 56-byte little-endian header followed by
// self-contained chunks. Each record is one memory reference (address +
// read/write flag), transformed to t = (addr << 1) | write and stored as
// the zigzag-varint of the delta against the previous record's t; the
// first record of every chunk deltas against 0, so a chunk decodes
// without any state from its predecessors and a reader may start at any
// chunk boundary. The header carries the record count, a content digest (FNV-1a 64 over the
// transformed record stream — independent of chunking), the address
// range, and the number of distinct 64-byte lines touched (the working
// set the bandwidth/latency model needs). See docs/FORMATS.md for the
// byte-level layout and compatibility rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "memsim/trace_gen.hpp"

namespace fpr::io {

/// Malformed or unreadable trace input: missing file, wrong magic,
/// unsupported version, or a truncated/corrupt chunk. The CLI maps this
/// to exit code 3 (the `fpr diff` unreadable-input convention) — callers
/// never see a raw stream/parse throw.
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kTraceMagic[8] = {'F', 'P', 'R', 'T', 'R', 'A', 'C', 'E'};
inline constexpr std::uint32_t kTraceVersion = 1;
/// Default records per chunk: large enough to amortize the 16-byte chunk
/// header to noise, small enough that a decode buffer stays L2-resident.
inline constexpr std::uint32_t kTraceChunkRecords = 4096;
/// The largest `chunk_records` a writer stamps or a reader accepts. With
/// no chunk longer than the header's `chunk_records`, it caps the decode
/// buffer at 10 MiB (10 bytes a record) whatever the file claims.
inline constexpr std::uint32_t kTraceMaxChunkRecords = 1u << 20;
inline constexpr std::size_t kTraceHeaderBytes = 56;

/// The header fields of a trace file (validated magic/version implied).
struct TraceInfo {
  std::uint64_t records = 0;        ///< total record count
  std::uint64_t digest = 0;         ///< FNV-1a 64 over the record stream
  std::uint64_t min_addr = 0;       ///< 0 when the trace is empty
  std::uint64_t max_addr = 0;
  std::uint64_t touched_lines = 0;  ///< distinct 64-byte lines referenced
  std::uint32_t chunk_records = kTraceChunkRecords;

  /// Working set implied by the touched lines (bytes).
  [[nodiscard]] std::uint64_t working_set_bytes() const {
    return touched_lines * 64;
  }
};

/// Streaming writer: append references, then finish() (or destruct) to
/// flush the last chunk and patch the header counts/digest/footprint.
/// Addresses must fit 63 bits (the write flag shares the transformed
/// word); larger ones raise TraceFormatError, and so does a chunk size
/// outside [1, kTraceMaxChunkRecords].
class TraceWriter {
 public:
  explicit TraceWriter(const std::string& path,
                       std::uint32_t chunk_records = kTraceChunkRecords);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const memsim::MemRef& ref);
  void append(const memsim::MemRef* refs, std::size_t n);
  /// Flush pending records and patch the header. Idempotent; the
  /// destructor calls it, but calling explicitly surfaces I/O errors.
  void finish();
  /// Close the file without finishing it and delete it. The writer is
  /// finished afterwards.
  void discard();

  [[nodiscard]] std::uint64_t records() const { return info_.records; }
  [[nodiscard]] std::uint64_t digest() const { return info_.digest; }

 private:
  void flush_chunk();

  std::string path_;
  std::ofstream out_;
  TraceInfo info_;
  std::vector<memsim::MemRef> pending_;
  std::unordered_set<std::uint64_t> lines_;
  bool finished_ = false;
};

/// Writes the trace file `path`: opens a TraceWriter on it, lets
/// `append` fill it, finishes it and returns its digest. If anything
/// throws once the file is open, the partial file is removed before the
/// exception propagates, so a failed write leaves no trace to replay.
std::uint64_t write_trace(const std::string& path,
                          const std::function<void(TraceWriter&)>& append);

/// Read and validate just the header of a trace file.
TraceInfo read_trace_info(const std::string& path);

/// Chunked streaming decoder. read() produces records in file order;
/// a short (or zero) return means the stream is exhausted — after which
/// the decoded total has been checked against the header count, so
/// truncated files surface as TraceFormatError, never as a silently
/// shorter trace.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  [[nodiscard]] const TraceInfo& info() const { return info_; }

  /// Decode up to `n` records into `out`; returns the count produced
  /// (0 = end of trace). Throws TraceFormatError on corrupt chunks.
  std::size_t read(memsim::MemRef* out, std::size_t n);

 private:
  bool next_chunk();

  std::string path_;
  std::ifstream in_;
  TraceInfo info_;
  std::vector<std::uint8_t> chunk_;    ///< current chunk payload
  std::size_t chunk_pos_ = 0;
  std::uint32_t chunk_remaining_ = 0;  ///< records left in current chunk
  std::uint64_t prev_t_ = 0;           ///< delta base within the chunk
  std::uint64_t decoded_ = 0;          ///< records produced so far
  bool eof_checked_ = false;
};

/// Text -> binary conversion: reads lines of the form `R <addr>` /
/// `W <addr>` (addresses decimal or 0x-hex; blank lines and `#` comments
/// skipped) and appends them to `w`. Returns the number of records
/// converted. Throws TraceFormatError naming the 1-based line of the
/// first malformed input. The caller finishes the writer.
std::uint64_t convert_text_trace(std::istream& in, TraceWriter& w);

/// Binary -> text: dump up to `limit` records (0 = all) as the exact
/// line format convert_text_trace() accepts, so dump|convert round-trips
/// byte-identically for same-chunking writers.
std::uint64_t dump_trace_text(TraceReader& r, std::ostream& out,
                              std::uint64_t limit = 0);

}  // namespace fpr::io
