// Unit tests for the SDE-substitute: tallies, context sinks, the single
// counting path (no fallback outside a context), counted<T>, assay
// regions.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>

#include "common/execution_context.hpp"
#include "counters/assay.hpp"
#include "counters/counted.hpp"
#include "counters/sink.hpp"

namespace fpr::counters {
namespace {

TEST(CountersTest, TallyArithmetic) {
  OpTally a{.fp64 = 10, .fp32 = 5, .int_ops = 3};
  OpTally b{.fp64 = 1, .fp32 = 2, .int_ops = 3};
  const OpTally sum = a + b;
  EXPECT_EQ(sum.fp64, 11u);
  EXPECT_EQ(sum.fp32, 7u);
  EXPECT_EQ(sum.int_ops, 6u);
  const OpTally diff = sum - b;
  EXPECT_EQ(diff, a);
}

// The underflow footgun: subtracting a larger tally must trip the debug
// assertion instead of wrapping to ~2^64 counts (a mis-nested assay
// would otherwise silently report absurd totals). Release builds keep
// the wrapping (the statement executes unchecked), which
// EXPECT_DEBUG_DEATH also accepts.
TEST(CountersTest, TallyDifferenceUnderflowDeath) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const OpTally small{.fp64 = 1};
  const OpTally big{.fp64 = 2};
  EXPECT_DEBUG_DEATH((void)(small - big), "underflow");
}

TEST(CountersTest, Shares) {
  OpTally t{.fp64 = 50, .fp32 = 25, .int_ops = 25};
  EXPECT_DOUBLE_EQ(t.fp64_share(), 0.5);
  EXPECT_DOUBLE_EQ(t.fp32_share(), 0.25);
  EXPECT_DOUBLE_EQ(t.int_share(), 0.25);
  EXPECT_EQ(t.fp_total(), 75u);
  OpTally empty;
  EXPECT_EQ(empty.fp64_share(), 0.0);
}

// The single counting path: with no context bound, a count has nowhere
// to land, so it throws instead of falling back to a process-wide tally
// — on the test thread and on a thread no context ever bound.
TEST(Counters, CountingOutsideAContextThrows) {
  const auto count_unbound = [] {
    EXPECT_THROW(add_fp64(1), std::logic_error);
    const counted<double> a = 1.0, b = 2.0;
    EXPECT_THROW((void)(a + b), std::logic_error);
  };
  count_unbound();
  std::thread fresh(count_unbound);
  fresh.join();
  try {
    add_int(1);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("outside an ExecutionContext"),
              std::string::npos)
        << e.what();
  }
}

// Each add_* helper lands in its own field of the calling thread's
// bound slot.
TEST(CountersTest, LocalTallyAccumulates) {
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  add_fp64(5);
  add_fp32(3);
  add_int(2);
  add_branch(1);
  add_read_bytes(100);
  add_write_bytes(50);
  const OpTally snap = ctx.counters().snapshot();
  EXPECT_EQ(snap.fp64, 5u);
  EXPECT_EQ(snap.fp32, 3u);
  EXPECT_EQ(snap.int_ops, 2u);
  EXPECT_EQ(snap.branches, 1u);
  EXPECT_EQ(snap.bytes_read, 100u);
  EXPECT_EQ(snap.bytes_written, 50u);
}

TEST(CountersTest, SnapshotSumsAcrossThreads) {
  CounterSink sink(2);
  std::thread t1([&] {
    ScopedCounting bind(sink, 0);
    add_fp64(100);
  });
  std::thread t2([&] {
    ScopedCounting bind(sink, 1);
    add_fp64(200);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(sink.snapshot().fp64, 300u);
}

// Counts live in the sink, not in the thread: they outlive it.
TEST(CountersTest, RetiredThreadCountsPreserved) {
  CounterSink sink(1);
  std::thread t([&] {
    ScopedCounting bind(sink, 0);
    add_int(77);
  });
  t.join();
  EXPECT_EQ(sink.snapshot().int_ops, 77u);
}

TEST(CountersTest, CountedDoubleCountsFp64) {
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  counted<double> a = 2.0, b = 3.0;
  const counted<double> c = a * b + a - b / a;
  EXPECT_DOUBLE_EQ(c.value(), 2.0 * 3.0 + 2.0 - 3.0 / 2.0);
  const OpTally d = ctx.counters().snapshot();
  EXPECT_EQ(d.fp64, 4u);  // *, +, -, /
  EXPECT_EQ(d.fp32, 0u);
}

TEST(CountersTest, CountedFloatCountsFp32) {
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  counted<float> a = 1.5f, b = 2.0f;
  (void)(a + b);
  const OpTally d = ctx.counters().snapshot();
  EXPECT_EQ(d.fp32, 1u);
  EXPECT_EQ(d.fp64, 0u);
}

TEST(CountersTest, CountedIntCountsInt) {
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  counted<int> a = 6, b = 7;
  (void)(a * b);
  const OpTally d = ctx.counters().snapshot();
  EXPECT_EQ(d.int_ops, 1u);
}

TEST(CountersTest, CountedFmaCountsTwo) {
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  const auto r = fma(counted<double>(2), counted<double>(3),
                     counted<double>(4));
  EXPECT_DOUBLE_EQ(r.value(), 10.0);
  EXPECT_EQ(ctx.counters().snapshot().fp64, 2u);
}

TEST(CountersTest, CountedComparisonCountsBranch) {
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  counted<double> a = 1.0, b = 2.0;
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(a > b);
  EXPECT_TRUE(a <= b);
  EXPECT_FALSE(a >= b);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(ctx.counters().snapshot().branches, 5u);
}

TEST(CountersTest, CountedSqrtAbsNegate) {
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  EXPECT_DOUBLE_EQ(sqrt(counted<double>(9.0)).value(), 3.0);
  EXPECT_DOUBLE_EQ(abs(counted<double>(-2.0)).value(), 2.0);
  EXPECT_DOUBLE_EQ((-counted<double>(5.0)).value(), -5.0);
  EXPECT_EQ(ctx.counters().snapshot().fp64, 3u);
}

TEST(CountersTest, RawExtraction) {
  EXPECT_DOUBLE_EQ(raw(counted<double>(1.5)), 1.5);
  EXPECT_DOUBLE_EQ(raw(1.5), 1.5);
  static_assert(std::is_same_v<scalar_t<counted<float>>, float>);
  static_assert(std::is_same_v<scalar_t<double>, double>);
}

TEST(CountersTest, AssayMeasuresDelta) {
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  AssayRecorder rec(ctx.counters());
  add_fp64(50);  // outside the region: must not count
  rec.start();
  add_fp64(7);
  rec.stop();
  add_fp64(50);  // after: must not count
  EXPECT_EQ(rec.ops().fp64, 7u);
  EXPECT_GT(rec.seconds(), 0.0);
  EXPECT_EQ(rec.intervals(), 1u);
}

TEST(CountersTest, AssayAccumulatesIntervals) {
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  AssayRecorder rec(ctx.counters());
  rec.start();
  add_int(3);
  rec.stop();
  rec.start();
  add_int(4);
  rec.stop();
  EXPECT_EQ(rec.ops().int_ops, 7u);
  EXPECT_EQ(rec.intervals(), 2u);
}

TEST(CountersTest, AssayDoubleStartThrows) {
  ExecutionContext ctx(1);
  ExecutionContext::Scope scope(ctx);
  AssayRecorder rec(ctx.counters());
  rec.start();
  EXPECT_THROW(rec.start(), std::logic_error);
  rec.stop();
  EXPECT_THROW(rec.stop(), std::logic_error);
}

TEST(CountersTest, ScopedAssayStopsOnException) {
  ExecutionContext ctx(1);
  ExecutionContext::Scope bind(ctx);
  AssayRecorder rec(ctx.counters());
  try {
    ScopedAssay scope(rec);
    add_fp64(11);
    throw std::runtime_error("solver blew up");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(rec.running());
  EXPECT_EQ(rec.ops().fp64, 11u);
}

TEST(CountersTest, AssayCapturesContextWorkerThreads) {
  ExecutionContext ctx(4);
  AssayRecorder rec(ctx.counters());
  rec.start();
  ctx.parallel_for(64, [](std::size_t lo, std::size_t hi, unsigned) {
    add_fp64(hi - lo);
  });
  rec.stop();
  EXPECT_EQ(rec.ops().fp64, 64u);
}

// Satellite fix: start()/stop() while the context has an in-flight
// parallel region used to be only a comment ("call ... while worker
// threads are quiescent") — now it throws instead of tearing the
// snapshot.
TEST(CountersTest, AssayInsideParallelRegionThrows) {
  ExecutionContext ctx(2);
  AssayRecorder rec(ctx.counters());
  unsigned throws = 0;
  ctx.parallel_for(8, [&](std::size_t lo, std::size_t, unsigned) {
    if (lo != 0) return;  // probe once, from one worker
    try {
      rec.start();
    } catch (const std::logic_error&) {
      ++throws;  // lo==0 chunk runs exactly once; no sync needed
    }
  });
  EXPECT_EQ(throws, 1u);
  EXPECT_FALSE(rec.running());
  // Quiescent again: the same recorder works normally (Scope binds this
  // thread's serial counting to the sink the recorder snapshots).
  ExecutionContext::Scope scope(ctx);
  rec.start();
  add_int(3);
  rec.stop();
  EXPECT_EQ(rec.ops().int_ops, 3u);
}

TEST(CountersTest, ScopedCountingRoutesIntoSinkAndRestores) {
  CounterSink sink(2);
  ExecutionContext ctx(1);
  {
    ExecutionContext::Scope scope(ctx);
    add_fp64(5);  // outside: the outer binding (the context's slot 0)
    {
      ScopedCounting bind(sink, 1);
      add_fp64(7);  // inside: sink slot 1
    }
    add_fp64(11);  // restored: the outer binding again
  }
  EXPECT_THROW(add_fp64(13), std::logic_error);  // restored: none bound
  EXPECT_EQ(sink.slot(1).fp64, 7u);
  EXPECT_EQ(sink.slot(0).fp64, 0u);
  EXPECT_EQ(sink.snapshot().fp64, 7u);
  EXPECT_EQ(ctx.counters().snapshot().fp64, 16u);
}

TEST(CountersTest, ConcurrentSinksDoNotCrossContaminate) {
  CounterSink a(1), b(1);
  std::thread ta([&] {
    ScopedCounting bind(a, 0);
    for (int i = 0; i < 10'000; ++i) add_fp64(1);
  });
  std::thread tb([&] {
    ScopedCounting bind(b, 0);
    for (int i = 0; i < 10'000; ++i) add_int(1);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.snapshot().fp64, 10'000u);
  EXPECT_EQ(a.snapshot().int_ops, 0u);
  EXPECT_EQ(b.snapshot().int_ops, 10'000u);
  EXPECT_EQ(b.snapshot().fp64, 0u);
}

}  // namespace
}  // namespace fpr::counters
