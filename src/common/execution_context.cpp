#include "common/execution_context.hpp"

namespace fpr {

namespace {

/// Brackets a parallel region in the sink's bookkeeping so assays can
/// detect non-quiescent snapshots; exception-safe by construction.
class RegionGuard {
 public:
  explicit RegionGuard(counters::CounterSink& sink) : sink_(sink) {
    sink_.enter_region();
  }
  ~RegionGuard() { sink_.exit_region(); }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;

 private:
  counters::CounterSink& sink_;
};

}  // namespace

ExecutionContext::ExecutionContext(unsigned threads)
    : pool_(threads), sink_(pool_.size() + 1) {}

void ExecutionContext::parallel_for(std::size_t n, const Body& body) {
  RegionGuard region(sink_);
  pool_.parallel_for(
      n, [this, &body](std::size_t begin, std::size_t end, unsigned worker) {
        counters::ScopedCounting bind(sink_, worker);
        body(begin, end, worker);
      });
}

}  // namespace fpr
