#include "io/trace_format.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>

namespace fpr::io {

namespace {

// FNV-1a 64 over the little-endian bytes of each transformed record
// word: a pure function of the record stream, independent of chunking.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

constexpr char kChunkMagic[4] = {'F', 'P', 'R', 'C'};
constexpr std::size_t kChunkHeaderBytes = 16;
/// A varint carrying 64 bits never exceeds 10 bytes; any chunk claiming
/// more payload per record is corrupt.
constexpr std::uint64_t kMaxVarintBytes = 10;

void put_le32(std::string& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_le64(std::string& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t get_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// addr<<1|write packing, delta, zigzag. The transformed word makes the
/// write flag ride the delta stream (a read/write toggle costs one bit)
/// and keeps the whole record in a single varint.
std::uint64_t transform(const memsim::MemRef& ref) {
  return (ref.addr << 1) | (ref.write ? 1u : 0u);
}

std::uint64_t zigzag(std::uint64_t delta) {
  const auto sd = static_cast<std::int64_t>(delta);
  return (static_cast<std::uint64_t>(sd) << 1) ^
         static_cast<std::uint64_t>(sd >> 63);
}

std::uint64_t unzigzag(std::uint64_t zz) {
  return (zz >> 1) ^ (~(zz & 1) + 1);
}

void put_varint(std::string& b, std::uint64_t v) {
  while (v >= 0x80) {
    b.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  b.push_back(static_cast<char>(v));
}

std::string encode_header(const TraceInfo& info) {
  std::string b;
  b.reserve(kTraceHeaderBytes);
  b.append(kTraceMagic, sizeof(kTraceMagic));
  put_le32(b, kTraceVersion);
  put_le32(b, info.chunk_records);
  put_le64(b, info.records);
  put_le64(b, info.digest);
  put_le64(b, info.min_addr);
  put_le64(b, info.max_addr);
  put_le64(b, info.touched_lines);
  return b;
}

[[noreturn]] void bad(const std::string& path, const std::string& what) {
  throw TraceFormatError("trace file '" + path + "': " + what);
}

TraceInfo decode_header(const std::string& path, std::istream& in) {
  unsigned char h[kTraceHeaderBytes];
  in.read(reinterpret_cast<char*>(h), sizeof(h));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(h))) {
    bad(path, "truncated header (" + std::to_string(in.gcount()) +
                  " of " + std::to_string(kTraceHeaderBytes) + " bytes)");
  }
  if (!std::equal(kTraceMagic, kTraceMagic + sizeof(kTraceMagic),
                  reinterpret_cast<const char*>(h))) {
    bad(path, "bad magic (not an fpr-trace file)");
  }
  const std::uint32_t version = get_le32(h + 8);
  if (version != kTraceVersion) {
    bad(path, "unsupported fpr-trace version " + std::to_string(version) +
                  " (this build reads version " +
                  std::to_string(kTraceVersion) + ")");
  }
  TraceInfo info;
  info.chunk_records = get_le32(h + 12);
  info.records = get_le64(h + 16);
  info.digest = get_le64(h + 24);
  info.min_addr = get_le64(h + 32);
  info.max_addr = get_le64(h + 40);
  info.touched_lines = get_le64(h + 48);
  if (info.chunk_records == 0 || info.chunk_records > kTraceMaxChunkRecords) {
    bad(path, "chunk size " + std::to_string(info.chunk_records) +
                  " in header is outside [1, 2^20]");
  }
  return info;
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, std::uint32_t chunk_records)
    : path_(path) {
  if (chunk_records == 0 || chunk_records > kTraceMaxChunkRecords) {
    throw TraceFormatError("trace chunk size " +
                           std::to_string(chunk_records) +
                           " is outside [1, 2^20]");
  }
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw TraceFormatError("cannot write trace file '" + path +
                           "': unwritable path");
  }
  info_.chunk_records = chunk_records;
  info_.digest = kFnvOffset;
  info_.min_addr = std::numeric_limits<std::uint64_t>::max();
  info_.max_addr = 0;
  pending_.reserve(chunk_records);
  // Placeholder header; finish() patches the counts/digest/footprint.
  const std::string h = encode_header(info_);
  out_.write(h.data(), static_cast<std::streamsize>(h.size()));
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (const TraceFormatError&) {
    // Destructor must not throw; callers that care about I/O failures
    // call finish() explicitly.
  }
}

void TraceWriter::append(const memsim::MemRef& ref) { append(&ref, 1); }

void TraceWriter::append(const memsim::MemRef* refs, std::size_t n) {
  if (finished_) {
    throw TraceFormatError("trace file '" + path_ +
                           "': append after finish()");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if ((refs[i].addr >> 63) != 0) {
      throw TraceFormatError(
          "trace file '" + path_ +
          "': address exceeds 63 bits and cannot be recorded");
    }
    pending_.push_back(refs[i]);
    if (pending_.size() == info_.chunk_records) flush_chunk();
  }
}

void TraceWriter::flush_chunk() {
  if (pending_.empty()) return;
  std::string payload;
  payload.reserve(pending_.size() * 2);
  std::uint64_t prev = 0;  // every chunk deltas from 0: self-contained
  for (const auto& ref : pending_) {
    const std::uint64_t t = transform(ref);
    put_varint(payload, zigzag(t - prev));
    prev = t;
    info_.digest = fnv1a_u64(info_.digest, t);
    info_.min_addr = std::min(info_.min_addr, ref.addr);
    info_.max_addr = std::max(info_.max_addr, ref.addr);
    lines_.insert(ref.addr >> 6);
  }
  std::string header;
  header.reserve(kChunkHeaderBytes);
  header.append(kChunkMagic, sizeof(kChunkMagic));
  put_le32(header, static_cast<std::uint32_t>(pending_.size()));
  put_le64(header, payload.size());
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  info_.records += pending_.size();
  pending_.clear();
}

void TraceWriter::finish() {
  if (finished_) return;
  flush_chunk();
  if (info_.records == 0) {
    info_.min_addr = 0;
    info_.max_addr = 0;
  }
  info_.touched_lines = lines_.size();
  out_.seekp(0);
  const std::string h = encode_header(info_);
  out_.write(h.data(), static_cast<std::streamsize>(h.size()));
  out_.flush();
  if (!out_) {
    throw TraceFormatError("trace file '" + path_ + "': write failed");
  }
  out_.close();
  finished_ = true;
}

void TraceWriter::discard() {
  finished_ = true;
  out_.close();
  std::remove(path_.c_str());
}

std::uint64_t write_trace(const std::string& path,
                          const std::function<void(TraceWriter&)>& append) {
  TraceWriter w(path);
  try {
    append(w);
    w.finish();
  } catch (...) {
    w.discard();
    throw;
  }
  return w.digest();
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceInfo read_trace_info(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw TraceFormatError("cannot read trace file '" + path +
                           "': missing or unreadable");
  }
  return decode_header(path, in);
}

TraceReader::TraceReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary) {
  if (!in_) {
    throw TraceFormatError("cannot read trace file '" + path +
                           "': missing or unreadable");
  }
  info_ = decode_header(path_, in_);
}

bool TraceReader::next_chunk() {
  unsigned char h[kChunkHeaderBytes];
  in_.read(reinterpret_cast<char*>(h), sizeof(h));
  const auto got = in_.gcount();
  if (got == 0) {
    // Clean end of the chunk stream: the header's record count must be
    // accounted for, or the file lost whole chunks.
    if (!eof_checked_ && decoded_ != info_.records) {
      bad(path_, "truncated: header promises " +
                     std::to_string(info_.records) + " record(s), chunks "
                     "contain " + std::to_string(decoded_));
    }
    eof_checked_ = true;
    return false;
  }
  if (got != static_cast<std::streamsize>(sizeof(h))) {
    bad(path_, "truncated chunk header after " + std::to_string(decoded_) +
                   " record(s)");
  }
  if (!std::equal(kChunkMagic, kChunkMagic + sizeof(kChunkMagic),
                  reinterpret_cast<const char*>(h))) {
    bad(path_, "bad chunk magic after " + std::to_string(decoded_) +
                   " record(s)");
  }
  const std::uint32_t count = get_le32(h + 4);
  const std::uint64_t payload_bytes = get_le64(h + 8);
  // Only the last chunk may be short, so no chunk is longer than the
  // header's chunk size: that bound, not the count field, sizes chunk_.
  if (count > info_.chunk_records) {
    bad(path_, "chunk of " + std::to_string(count) +
                   " record(s) exceeds the header's chunk size " +
                   std::to_string(info_.chunk_records));
  }
  if (count == 0 || payload_bytes == 0 ||
      payload_bytes > static_cast<std::uint64_t>(count) * kMaxVarintBytes) {
    bad(path_, "corrupt chunk header (" + std::to_string(count) +
                   " record(s), " + std::to_string(payload_bytes) +
                   " payload byte(s))");
  }
  if (decoded_ + count > info_.records) {
    bad(path_, "chunks contain more records than the header's " +
                   std::to_string(info_.records));
  }
  chunk_.resize(static_cast<std::size_t>(payload_bytes));
  in_.read(reinterpret_cast<char*>(chunk_.data()),
           static_cast<std::streamsize>(chunk_.size()));
  if (in_.gcount() != static_cast<std::streamsize>(chunk_.size())) {
    bad(path_, "truncated chunk payload after " + std::to_string(decoded_) +
                   " record(s)");
  }
  chunk_pos_ = 0;
  chunk_remaining_ = count;
  prev_t_ = 0;
  return true;
}

std::size_t TraceReader::read(memsim::MemRef* out, std::size_t n) {
  std::size_t produced = 0;
  while (produced < n) {
    if (chunk_remaining_ == 0) {
      if (!next_chunk()) break;
    }
    std::uint64_t zz = 0;
    unsigned shift = 0;
    while (true) {
      if (chunk_pos_ >= chunk_.size()) {
        bad(path_, "record varint overruns its chunk payload");
      }
      const std::uint8_t byte = chunk_[chunk_pos_++];
      if (shift >= 64 || (shift == 63 && (byte & 0x7e) != 0)) {
        bad(path_, "record varint exceeds 64 bits");
      }
      zz |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    prev_t_ += unzigzag(zz);
    out[produced].addr = prev_t_ >> 1;
    out[produced].write = (prev_t_ & 1) != 0;
    ++produced;
    ++decoded_;
    if (--chunk_remaining_ == 0 && chunk_pos_ != chunk_.size()) {
      bad(path_, "chunk payload longer than its record count");
    }
  }
  return produced;
}

// ---------------------------------------------------------------------------
// Text conversion
// ---------------------------------------------------------------------------

std::uint64_t convert_text_trace(std::istream& in, TraceWriter& w) {
  std::uint64_t converted = 0;
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t i = 0;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i == line.size() || line[i] == '#' || line[i] == '\r') continue;
    const char op = line[i];
    const bool write = (op == 'W' || op == 'w');
    const bool read = (op == 'R' || op == 'r');
    ++i;
    const bool spaced = i < line.size() && (line[i] == ' ' || line[i] == '\t');
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    bool ok = (write || read) && spaced && i < line.size() && line[i] != '-';
    memsim::MemRef ref;
    ref.write = write;
    if (ok) {
      char* end = nullptr;
      ref.addr = std::strtoull(line.c_str() + i, &end, 0);
      std::size_t j = static_cast<std::size_t>(end - line.c_str());
      ok = j > i;
      while (j < line.size() && (line[j] == ' ' || line[j] == '\t' ||
                                 line[j] == '\r')) {
        ++j;
      }
      ok = ok && j == line.size();
    }
    if (!ok) {
      throw TraceFormatError(
          "text trace line " + std::to_string(lineno) +
          ": expected 'R <addr>' or 'W <addr>', got '" + line + "'");
    }
    w.append(ref);
    ++converted;
  }
  return converted;
}

std::uint64_t dump_trace_text(TraceReader& r, std::ostream& out,
                              std::uint64_t limit) {
  std::vector<memsim::MemRef> block(4096);
  std::uint64_t dumped = 0;
  char buf[40];
  while (limit == 0 || dumped < limit) {
    const std::size_t want =
        limit == 0 ? block.size()
                   : static_cast<std::size_t>(std::min<std::uint64_t>(
                         block.size(), limit - dumped));
    const std::size_t got = r.read(block.data(), want);
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      std::snprintf(buf, sizeof(buf), "%c 0x%llx\n",
                    block[i].write ? 'W' : 'R',
                    static_cast<unsigned long long>(block[i].addr));
      out << buf;
    }
    dumped += got;
  }
  return dumped;
}

}  // namespace fpr::io
