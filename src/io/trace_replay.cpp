#include "io/trace_replay.hpp"

#include <algorithm>
#include <vector>

namespace fpr::io {

void record_trace(const std::string& path,
                  const memsim::AccessPatternSpec& scaled, std::uint64_t seed,
                  std::uint64_t records) {
  memsim::TraceGenerator gen(scaled, seed);
  write_trace(path, [&](TraceWriter& w) {
    std::vector<memsim::MemRef> block(kTraceChunkRecords);
    for (std::uint64_t done = 0; done < records;) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(block.size(), records - done));
      gen.fill(block.data(), n);
      w.append(block.data(), n);
      done += n;
    }
  });
}

memsim::HierarchyResult replay_trace_cached(
    memsim::SimCache* cache, const arch::CpuSpec& cpu,
    const std::string& path, std::uint64_t refs, std::uint64_t warmup,
    unsigned scale_shift) {
  if (cache == nullptr) {
    FileTraceSource src(path);
    return memsim::simulate_trace(cpu, src, refs, warmup, scale_shift);
  }
  // The digest identifies the record stream (not its chunking), so the
  // key survives re-encodings of the same trace; resolving `refs`
  // against the recorded count keeps "ask for more than the file has"
  // and "ask for exactly what it has" on one cache entry.
  const TraceInfo info = read_trace_info(path);
  const std::uint64_t avail =
      info.records > warmup ? info.records - warmup : 0;
  const std::uint64_t resolved = std::min(refs, avail);
  const std::string k = memsim::SimCache::trace_key(cpu, info.digest,
                                                    resolved, warmup,
                                                    scale_shift);
  if (auto found = cache->find(k)) return *found;
  FileTraceSource src(path);
  return *cache->insert(
      k, memsim::simulate_trace(cpu, src, resolved, warmup, scale_shift));
}

}  // namespace fpr::io
