// Tests for the parallel StudyEngine: determinism across job counts,
// single-execution of the instrumented kernel-run stage, deterministic
// result ordering, and fail-fast propagation of verification failures.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/execution_context.hpp"
#include "io/study_json.hpp"
#include "study/study_engine.hpp"

namespace fpr::study {
namespace {

// ---------------------------------------------------------------------------
// Injectable fake kernels: cheap, deterministic, and instrumented with a
// shared run counter so tests can assert how often the engine executed
// the kernel-run stage (the "hoisted single instrumented run" guarantee:
// one run per kernel, not one per machine profile).

struct RunLog {
  std::atomic<int> total{0};
  std::vector<std::string> order;  // producer-side, serial by design
  std::mutex mu;
};

class FakeKernel : public kernels::ProxyKernel {
 public:
  FakeKernel(std::string abbrev, RunLog* log, bool fail,
             std::chrono::milliseconds delay = {},
             memsim::AccessPatternSpec access =
                 memsim::AccessPatternSpec::single(
                     memsim::StreamPattern{1u << 26, 3, 1}))
      : log_(log), fail_(fail), delay_(delay), access_(std::move(access)) {
    info_.name = "Fake " + abbrev;
    info_.abbrev = std::move(abbrev);
    info_.suite = kernels::Suite::reference;
    info_.domain = kernels::Domain::reference;
    info_.pattern = kernels::ComputePattern::stream;
    info_.language = "C++";
    info_.paper_input = "synthetic";
  }

  [[nodiscard]] const kernels::KernelInfo& info() const override {
    return info_;
  }

  [[nodiscard]] kernels::WorkloadMeasurement run(
      ExecutionContext&, const kernels::RunConfig&) const override {
    log_->total.fetch_add(1);
    {
      std::lock_guard lock(log_->mu);
      log_->order.push_back(info_.abbrev);
    }
    if (fail_) {
      throw std::runtime_error(info_.abbrev +
                               ": verification failed (injected)");
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    kernels::WorkloadMeasurement m;
    m.name = info_.abbrev;
    m.ops.fp64 = 1'000'000'000;
    m.ops.int_ops = 250'000'000;
    m.ops.bytes_read = 8'000'000'000;
    m.ops.bytes_written = 4'000'000'000;
    m.working_set_bytes = 1u << 26;
    m.access = access_;
    m.verified = true;
    m.checksum = 42.0;
    return m;
  }

 private:
  kernels::KernelInfo info_;
  RunLog* log_;
  bool fail_;
  std::chrono::milliseconds delay_;
  memsim::AccessPatternSpec access_;
};

StudyEngine::KernelFactory fake_factory(
    const std::vector<std::string>& names, RunLog* log,
    const std::string& failing = "",
    std::chrono::milliseconds delay = {}) {
  return [names, log, failing, delay] {
    std::vector<std::unique_ptr<kernels::ProxyKernel>> out;
    for (const auto& n : names) {
      out.push_back(
          std::make_unique<FakeKernel>(n, log, n == failing, delay));
    }
    return out;
  };
}

StudyConfig fake_config(unsigned jobs, unsigned kernel_jobs = 1) {
  StudyConfig cfg;
  cfg.trace_refs = 20'000;
  cfg.jobs = jobs;
  cfg.kernel_jobs = kernel_jobs;
  cfg.canonical_timing = true;
  return cfg;
}

// ---------------------------------------------------------------------------
// Determinism over real kernels: the parallel engine must be a pure
// reordering of the serial pipeline's work, so its StudyResults must be
// bit-identical (compared via the lossless JSON serialization) for any
// jobs count, including the serial jobs=1 baseline.

StudyConfig real_subset_config(unsigned jobs, unsigned kernel_jobs = 1) {
  StudyConfig cfg;
  cfg.scale = 0.15;
  cfg.threads = 1;
  cfg.trace_refs = 60'000;
  cfg.kernels = {"AMG", "BABL2", "MxIO"};
  cfg.jobs = jobs;
  cfg.kernel_jobs = kernel_jobs;
  cfg.canonical_timing = true;
  return cfg;
}

// The tentpole guarantee: the engine is a pure reordering of the serial
// pipeline over BOTH fan-out axes. Every (kernel_jobs, jobs) point of
// the {1,2,8}^2 matrix must serialize byte-identically to the
// (1,1) baseline — concurrent kernel runs in per-run ExecutionContexts
// may not perturb a single op count.
TEST(StudyEngine, KernelJobsTimesMachineJobsMatrixBitIdentical) {
  const std::string base =
      io::dump(io::to_json(StudyEngine(real_subset_config(1, 1)).run()));
  for (const unsigned kernel_jobs : {1u, 2u, 8u}) {
    for (const unsigned jobs : {1u, 2u, 8u}) {
      if (kernel_jobs == 1 && jobs == 1) continue;
      const std::string got = io::dump(io::to_json(
          StudyEngine(real_subset_config(jobs, kernel_jobs)).run()));
      EXPECT_EQ(base, got)
          << "kernel_jobs=" << kernel_jobs << " jobs=" << jobs;
    }
  }
}

TEST(StudyEngine, DeterministicOrderingAcrossJobs) {
  const std::vector<std::string> names = {"K0", "K1", "K2", "K3", "K4",
                                          "K5", "K6", "K7"};
  for (const unsigned jobs : {1u, 8u}) {
    RunLog jog;
    StudyEngine engine(fake_config(jobs), fake_factory(names, &jog));
    const auto results = engine.run();
    ASSERT_EQ(results.kernels.size(), names.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(results.kernels[i].info.abbrev, names[i]) << "jobs=" << jobs;
      ASSERT_EQ(results.kernels[i].machines.size(), 3u);
      EXPECT_EQ(results.kernels[i].machines[0].cpu.short_name, "KNL");
      EXPECT_EQ(results.kernels[i].machines[1].cpu.short_name, "KNM");
      EXPECT_EQ(results.kernels[i].machines[2].cpu.short_name, "BDW");
    }
  }
}

TEST(StudyEngine, KernelSubsetFilterPreservesFactoryOrder) {
  RunLog log;
  auto cfg = fake_config(4);
  cfg.kernels = {"K3", "K1"};  // request order must NOT matter
  StudyEngine engine(cfg,
                     fake_factory({"K0", "K1", "K2", "K3", "K4"}, &log));
  const auto results = engine.run();
  ASSERT_EQ(results.kernels.size(), 2u);
  EXPECT_EQ(results.kernels[0].info.abbrev, "K1");
  EXPECT_EQ(results.kernels[1].info.abbrev, "K3");
  EXPECT_EQ(log.total.load(), 2);
}

// The satellite fix behind this PR: profiling a kernel's measurement for
// each of the three machines must share ONE instrumented run — the
// engine may never re-execute (or re-seed) the kernel per machine.
TEST(StudyEngine, KernelRunsExactlyOncePerKernel) {
  for (const unsigned kernel_jobs : {1u, 4u}) {
    for (const unsigned jobs : {1u, 4u}) {
      RunLog log;
      StudyEngine engine(fake_config(jobs, kernel_jobs),
                         fake_factory({"K0", "K1", "K2"}, &log));
      const auto results = engine.run();
      ASSERT_EQ(results.kernels.size(), 3u);
      // 1 run per kernel, even with concurrent producers racing the
      // claim cursor.
      EXPECT_EQ(log.total.load(), 3)
          << "kernel_jobs=" << kernel_jobs << " jobs=" << jobs;
      EXPECT_EQ(engine.stats().kernel_runs, 3u);
      // ... while every (kernel, machine) stage still ran.
      EXPECT_EQ(engine.stats().machine_evals, 9u);
      for (const auto& k : results.kernels) {
        EXPECT_TRUE(k.meas.verified);
        EXPECT_EQ(k.machines.size(), 3u);
        for (const auto& m : k.machines) {
          EXPECT_GT(m.perf.seconds, 0.0);
          EXPECT_FALSE(m.freq_sweep.empty());
        }
      }
    }
  }
}

// All FakeKernels publish the same access-pattern spec, so the engine's
// shared SimCache must simulate each machine's hierarchy exactly once
// and serve every other (kernel, machine) stage from memory — across
// any jobs split, with identical results (covered by the byte-identity
// tests above, which run through the same cache).
TEST(StudyEngine, MachineStagesShareMemoizedSimulations) {
  for (const unsigned kernel_jobs : {1u, 4u}) {
    for (const unsigned jobs : {1u, 4u}) {
      RunLog log;
      StudyEngine engine(fake_config(jobs, kernel_jobs),
                         fake_factory({"K0", "K1", "K2"}, &log));
      (void)engine.run();
      EXPECT_EQ(engine.stats().machine_evals, 9u);
      // 3 machines -> 3 distinct simulation keys across 9 stages. Under
      // concurrency two stages may both miss the same key before either
      // inserts (first writer wins, values identical), so only the
      // serial schedule pins the exact split.
      EXPECT_EQ(engine.stats().sim_hits + engine.stats().sim_misses, 9u)
          << "kernel_jobs=" << kernel_jobs << " jobs=" << jobs;
      EXPECT_GE(engine.stats().sim_misses, 3u);
      if (kernel_jobs == 1 && jobs == 1) {
        EXPECT_EQ(engine.stats().sim_misses, 3u);
        EXPECT_EQ(engine.stats().sim_hits, 6u);
      }
    }
  }
}

TEST(StudyEngine, FailFastPropagatesKernelException) {
  for (const unsigned jobs : {1u, 4u}) {
    RunLog log;
    StudyEngine engine(
        fake_config(jobs),
        fake_factory({"OK0", "BOOM", "NEVER0", "NEVER1"}, &log, "BOOM"));
    try {
      (void)engine.run();
      FAIL() << "expected the injected verification failure (jobs=" << jobs
             << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("BOOM: verification failed"),
                std::string::npos)
          << e.what();
    }
    // Fail-fast: the kernels after the failing one never started.
    EXPECT_EQ(log.total.load(), 2) << "jobs=" << jobs;  // OK0 + BOOM
    {
      std::lock_guard lock(log.mu);
      ASSERT_EQ(log.order.size(), 2u);
      EXPECT_EQ(log.order[0], "OK0");
      EXPECT_EQ(log.order[1], "BOOM");
    }
    EXPECT_EQ(engine.stats().kernel_runs, 1u) << "jobs=" << jobs;
  }
}

// With concurrent producers the strict "nothing after the failure"
// ordering is unobservable (another producer may have already claimed
// the next kernel), but the failure must still propagate, the engine
// must not hang, and producers must stop claiming once aborted.
TEST(StudyEngine, FailFastUnderConcurrentKernelProducers) {
  std::vector<std::string> names = {"BOOM"};
  for (int i = 0; i < 16; ++i) {
    std::string name = "K";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  RunLog log;
  // BOOM (claimed first) throws immediately; the healthy fakes take
  // 25 ms each, so the abort flag is set microseconds into a >130 ms
  // window — for all 16 healthy kernels to run anyway, BOOM's producer
  // would have to stall for that whole window between claiming and
  // throwing. Wide enough to stay deterministic on loaded CI runners
  // (including under TSan), cheap enough for a unit test: the engine
  // aborts after the ~3 kernels already in flight.
  StudyEngine engine(
      fake_config(4, 4),
      fake_factory(names, &log, "BOOM", std::chrono::milliseconds(25)));
  EXPECT_THROW((void)engine.run(), std::runtime_error);
  // Fail-fast: at most the claims already in flight when BOOM fired.
  EXPECT_LT(log.total.load(), 17);
}

// An abort can also start in a machine stage. BAD measures fine after
// 20 ms (time for every consumer to claim a unit), but its gather has
// elem_bytes = 0, which the trace generator rejects in every machine
// stage. SLOW runs for 100 ms after it, so consumers that claimed later
// units are asleep when BAD's stage throws; with one producer, LAST is
// never claimed, and only the abort can wake the consumers waiting for
// it. run() must rethrow that exception and return (a hang fails by
// timeout) for every (kernel_jobs, jobs) point.
TEST(StudyEngine, FailFastPropagatesMachineStageException) {
  for (const unsigned kernel_jobs : {1u, 2u, 8u}) {
    for (const unsigned jobs : {1u, 2u, 8u}) {
      RunLog log;
      StudyEngine engine(fake_config(jobs, kernel_jobs), [&log] {
        std::vector<std::unique_ptr<kernels::ProxyKernel>> out;
        out.push_back(std::make_unique<FakeKernel>(
            "BAD", &log, false, std::chrono::milliseconds(20),
            memsim::AccessPatternSpec::single(
                memsim::GatherPattern{.table_bytes = 1u << 26,
                                      .elem_bytes = 0})));
        out.push_back(std::make_unique<FakeKernel>(
            "SLOW", &log, false, std::chrono::milliseconds(100)));
        out.push_back(std::make_unique<FakeKernel>("LAST", &log, false));
        return out;
      });
      try {
        (void)engine.run();
        ADD_FAILURE() << "expected the rejected gather (kernel_jobs="
                      << kernel_jobs << " jobs=" << jobs << ")";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("elem_bytes must be > 0"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(StudyEngine, CanonicalTimingZeroesHostSeconds) {
  auto cfg = real_subset_config(1);
  cfg.kernels = {"BABL2"};
  cfg.trace_refs = 20'000;

  cfg.canonical_timing = true;
  const auto canonical = StudyEngine(cfg).run();
  ASSERT_EQ(canonical.kernels.size(), 1u);
  EXPECT_EQ(canonical.kernels[0].meas.host_seconds, 0.0);

  cfg.canonical_timing = false;
  const auto timed = StudyEngine(cfg).run();
  EXPECT_GT(timed.kernels[0].meas.host_seconds, 0.0);
}

TEST(StudyEngine, GoldenConfigIsTheDocumentedDeterministicScale) {
  const auto cfg = golden_config();
  EXPECT_EQ(cfg.threads, 1u);  // host-independent op counts
  EXPECT_EQ(cfg.kernel_jobs, 1u);  // pinned, though any value matches
  EXPECT_TRUE(cfg.canonical_timing);
  EXPECT_LT(cfg.scale, 1.0);
  const std::vector<std::string> expected = {"AMG",   "HPL",  "XSBn",
                                             "BABL2", "MxIO", "NGSA"};
  EXPECT_EQ(cfg.kernels, expected);
}

TEST(StudyEngine, EmptySelectionYieldsEmptyResults) {
  RunLog log;
  auto cfg = fake_config(4);
  cfg.kernels = {"NOPE"};  // matches nothing in the injected factory
  StudyEngine engine(cfg, fake_factory({"K0"}, &log));
  const auto results = engine.run();
  EXPECT_TRUE(results.kernels.empty());
  EXPECT_EQ(log.total.load(), 0);
  EXPECT_EQ(engine.stats().machine_evals, 0u);
}

}  // namespace
}  // namespace fpr::study
