// ExecutionContext tests: counter isolation between concurrent contexts,
// exception propagation under contention, pool sizing, and the
// thread-scope binding rules. This is the concurrency gate for the
// de-globalized execution layer (run under ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/execution_context.hpp"
#include "counters/assay.hpp"
#include "counters/sink.hpp"

namespace fpr {
namespace {

TEST(ExecutionContext, CoversFullRangeAndCountsIntoOwnSink) {
  ExecutionContext ctx(4);
  std::atomic<std::size_t> visited{0};
  ctx.parallel_for(1000, [&](std::size_t lo, std::size_t hi, unsigned) {
    visited.fetch_add(hi - lo);
    counters::add_fp64(hi - lo);
  });
  EXPECT_EQ(visited.load(), 1000u);
  EXPECT_EQ(ctx.counters().snapshot().fp64, 1000u);
  // Nothing leaked into a second, disjoint context.
  ExecutionContext other(2);
  EXPECT_EQ(other.counters().snapshot(), counters::OpTally{});
}

TEST(ExecutionContext, ForEachVisitsEveryIndexOnce) {
  ExecutionContext ctx(3);
  std::vector<std::atomic<int>> hits(257);
  ctx.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutionContext, ConcurrencyReflectsPoolSize) {
  ExecutionContext one(1);
  EXPECT_EQ(one.concurrency(), 1u);
  ExecutionContext four(4);
  EXPECT_EQ(four.concurrency(), 4u);
}

TEST(ExecutionContext, ScopeBindsSerialCountingToSlotZero) {
  ExecutionContext ctx(2);
  {
    ExecutionContext::Scope scope(ctx);
    counters::add_fp32(9);
  }
  EXPECT_EQ(ctx.counters().slot(0).fp32, 9u);
  // After: nothing is bound, and counting throws.
  EXPECT_THROW(counters::add_fp32(1), std::logic_error);
  EXPECT_EQ(ctx.counters().snapshot().fp32, 9u);
}

TEST(ExecutionContext, ScopesNestAndRestore) {
  ExecutionContext outer(1), inner(1);
  {
    ExecutionContext::Scope a(outer);
    counters::add_int(1);
    {
      ExecutionContext::Scope b(inner);
      counters::add_int(10);
    }
    counters::add_int(100);
  }
  EXPECT_EQ(outer.counters().snapshot().int_ops, 101u);
  EXPECT_EQ(inner.counters().snapshot().int_ops, 10u);
}

// The tentpole isolation property: many contexts running parallel
// regions at the same time, each with its own pool and sink, must each
// observe exactly its own counts — bit-exact, no cross-contamination,
// no lost updates. (Before this refactor, two concurrent runs would
// race the global pool's single job slot and each other's tallies.)
TEST(ExecutionContext, ManyConcurrentContextsStayIsolated) {
  constexpr int kContexts = 8;
  constexpr int kRounds = 20;
  std::vector<std::thread> drivers;
  std::vector<std::uint64_t> got(kContexts, 0);
  for (int c = 0; c < kContexts; ++c) {
    drivers.emplace_back([c, &got] {
      ExecutionContext ctx(2);
      const std::size_t n = 100 + 17 * static_cast<std::size_t>(c);
      for (int r = 0; r < kRounds; ++r) {
        ctx.parallel_for(n, [](std::size_t lo, std::size_t hi, unsigned) {
          counters::add_fp64(hi - lo);
        });
      }
      got[static_cast<std::size_t>(c)] = ctx.counters().snapshot().fp64;
    });
  }
  for (auto& t : drivers) t.join();
  for (int c = 0; c < kContexts; ++c) {
    EXPECT_EQ(got[static_cast<std::size_t>(c)],
              kRounds * (100u + 17u * static_cast<unsigned>(c)))
        << "context " << c;
  }
}

// Concurrent assayed regions: the end-to-end shape of parallel kernel
// runs — every context assays its own parallel work while seven other
// contexts are mid-flight.
TEST(ExecutionContext, ConcurrentAssaysMeasureExactDeltas) {
  constexpr int kContexts = 8;
  std::vector<std::thread> drivers;
  std::vector<std::uint64_t> measured(kContexts, 0);
  for (int c = 0; c < kContexts; ++c) {
    drivers.emplace_back([c, &measured] {
      ExecutionContext ctx(3);
      ExecutionContext::Scope scope(ctx);
      counters::add_fp64(999);  // pre-assay noise in the same sink
      counters::AssayRecorder rec(ctx.counters());
      rec.start();
      ctx.parallel_for(64, [](std::size_t lo, std::size_t hi, unsigned) {
        counters::add_fp64(hi - lo);
      });
      counters::add_fp64(5);  // serial tail inside the region
      rec.stop();
      measured[static_cast<std::size_t>(c)] = rec.ops().fp64;
    });
  }
  for (auto& t : drivers) t.join();
  for (const auto m : measured) EXPECT_EQ(m, 69u);
}

// Exception propagation under contention: while other contexts hammer
// their pools, a throwing chunk must surface on its own caller — and
// only there — leaving the context reusable.
TEST(ExecutionContext, ExceptionPropagationUnderContention) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> noise;
  for (int c = 0; c < 4; ++c) {
    noise.emplace_back([&stop] {
      ExecutionContext ctx(2);
      while (!stop.load(std::memory_order_relaxed)) {
        ctx.parallel_for(64, [](std::size_t lo, std::size_t hi, unsigned) {
          counters::add_int(hi - lo);
        });
      }
    });
  }

  ExecutionContext ctx(4);
  for (int round = 0; round < 50; ++round) {
    try {
      ctx.parallel_for(100, [&](std::size_t lo, std::size_t, unsigned) {
        if (lo == 0) throw std::runtime_error("chunk failed");
        counters::add_int(1);
      });
      FAIL() << "expected the chunk exception (round " << round << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk failed");
    }
    // The region bookkeeping unwound: assays work again immediately.
    counters::AssayRecorder rec(ctx.counters());
    rec.start();
    rec.stop();
  }

  stop.store(true);
  for (auto& t : noise) t.join();
}

}  // namespace
}  // namespace fpr
