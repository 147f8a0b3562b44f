#include "memsim/trace_source.hpp"

namespace fpr::memsim {

HierarchyResult simulate_trace(const arch::CpuSpec& cpu, TraceSource& src,
                               std::uint64_t refs, std::uint64_t warmup,
                               unsigned scale_shift) {
  Hierarchy h(cpu, scale_shift);
  return h.replay(src, refs, warmup);
}

}  // namespace fpr::memsim
