#include "counters/sink.hpp"

#include <algorithm>
#include <stdexcept>

namespace fpr::counters {

CounterSink::CounterSink(unsigned slots) : slots_(std::max(1u, slots)) {}

OpTally CounterSink::snapshot() const {
  OpTally sum;
  for (const Slot& s : slots_) sum += s.tally;
  return sum;
}

void detail::throw_unbound_counting() {
  throw std::logic_error(
      "counting outside an ExecutionContext: no counter sink is bound to "
      "this thread (run inside a parallel region or an "
      "ExecutionContext::Scope)");
}

}  // namespace fpr::counters
