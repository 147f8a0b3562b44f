// Unit tests for the common substrate: stats, tables, RNG, buffers,
// thread pool.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"

namespace fpr {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(Summarize, FastestAndSpread) {
  // 10 timings; fastest = 1.0; fastest half = {1.0 .. 1.04}.
  std::vector<double> t{1.04, 1.01, 1.0, 1.02, 1.03,
                        2.0,  2.1,  2.2, 2.3,  2.4};
  const auto s = summarize(t);
  EXPECT_DOUBLE_EQ(s.best, 1.0);
  EXPECT_NEAR(s.spread_fast_half, 0.04, 1e-12);
  EXPECT_NEAR(s.median, (1.04 + 2.0) / 2, 1e-12);
}

TEST(Summarize, EmptyInput) {
  const auto s = summarize({});
  EXPECT_EQ(s.best, 0.0);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, BelowBound) {
  Xoshiro256 r(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, ThreadSeedsDistinct) {
  std::set<std::uint64_t> seeds;
  for (unsigned t = 0; t < 64; ++t) seeds.insert(thread_seed(42, t));
  EXPECT_EQ(seeds.size(), 64u);
}

TEST(AlignedBuffer, AlignmentAndFill) {
  AlignedBuffer<double> buf(1000, 3.5);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kVecAlign, 0u);
  for (double v : buf) EXPECT_EQ(v, 3.5);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(16, 7);
  int* p = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, EmptyIsSafe) {
  AlignedBuffer<double> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size_bytes(), 0u);
}

TEST(TextTable, RendersAlignedAscii) {
  TextTable t({"a", "bb"});
  t.add_row({"x", "y"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("| a"), std::string::npos);
  EXPECT_NE(os.str().find("| x"), std::string::npos);
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, CsvEscapesSpecials) {
  TextTable t({"h"});
  t.add_row({"va\"l,ue"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"va\"\"l,ue\""), std::string::npos);
}

TEST(TextTable, RowBuilderFormats) {
  TextTable t({"s", "d", "i"});
  t.row().cell("x").num(1.23456, 2).integer(42).done();
  EXPECT_EQ(t.rows()[0][1], "1.23");
  EXPECT_EQ(t.rows()[0][2], "42");
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(2 * GiB), "2.00 GiB");
  EXPECT_EQ(format_count(1.5e9), "1.50 G");
  EXPECT_DOUBLE_EQ(gflops(2e9, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(gbs(1e9, 2.0), 0.5);
  EXPECT_EQ(gflops(1e9, 0.0), 0.0);
}

TEST(ThreadPool, CoversFullRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi, unsigned) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Every worker takes part, and worker ids stay below size() + 1, the
// count that per-worker slots (sink slots, SlotReduce) are sized by.
TEST(ThreadPool, RespectsWorkerLimit) {
  ThreadPool pool(8);
  std::set<unsigned> ids;
  std::mutex mu;
  pool.parallel_for(100, [&](std::size_t, std::size_t, unsigned id) {
    std::lock_guard lock(mu);
    ids.insert(id);
  });
  EXPECT_EQ(ids.size(), pool.size() + 1);
  EXPECT_EQ(*ids.rbegin(), pool.size());
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t lo, std::size_t, unsigned) {
                          if (lo == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t lo, std::size_t hi, unsigned) {
    count += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ZeroIterationsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t, unsigned) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::atomic<int> n{0};
  pool.parallel_for(50, [&](std::size_t lo, std::size_t hi, unsigned id) {
    EXPECT_EQ(id, 0u);
    n += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(n.load(), 50);
}

// A helper that cannot start must surface as std::system_error from the
// constructor, with the helpers already running joined: a joinable
// std::thread left behind would call std::terminate (SIGABRT). The
// forked child caps its own address space at its current size plus
// 20 MiB, so a thread-stack mapping fails after two or three starts.
TEST(ThreadPoolDeathTest, FailedThreadStartThrowsInsteadOfTerminating) {
  EXPECT_EXIT(
      {
        std::ifstream statm("/proc/self/statm");
        rlim_t pages = 0;
        statm >> pages;
        rlimit limit{};
        getrlimit(RLIMIT_AS, &limit);
        limit.rlim_cur =
            pages * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) + (20u << 20);
        if (setrlimit(RLIMIT_AS, &limit) != 0) _exit(2);
        try {
          ThreadPool pool(16);
        } catch (const std::system_error&) {
          _exit(0);
        }
        _exit(1);  // every helper started: the limit did not bite
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(WallTimer, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0;
  // Plain assignment: compound assignment on volatile is deprecated in
  // C++20 (-Wvolatile).
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.seconds(), 0.0);
  (void)sink;
}

}  // namespace
}  // namespace fpr
