#include "study/study_engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "arch/machines.hpp"
#include "common/execution_context.hpp"
#include "common/thread_pool.hpp"
#include "memsim/sim_cache.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"

namespace fpr::study {

StudyEngine::StudyEngine(StudyConfig cfg, KernelFactory factory)
    : cfg_(std::move(cfg)), factory_(std::move(factory)) {}

StudyResults StudyEngine::run() {
  const auto machines =
      cfg_.machines.empty() ? arch::all_machines() : cfg_.machines;
  auto all = factory_ ? factory_() : kernels::make_all();

  // Selection in factory (paper) order; result slots are fixed up front
  // so completion order never influences output order.
  std::vector<std::unique_ptr<kernels::ProxyKernel>> selected;
  for (auto& k : all) {
    const auto& abbrev = k->info().abbrev;
    if (cfg_.kernels.empty() ||
        std::find(cfg_.kernels.begin(), cfg_.kernels.end(), abbrev) !=
            cfg_.kernels.end()) {
      selected.push_back(std::move(k));
    }
  }

  StudyResults results;
  results.kernels.resize(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    results.kernels[i].info = selected[i]->info();
    results.kernels[i].machines.resize(machines.size());
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned jobs = std::max(1u, cfg_.jobs != 0 ? cfg_.jobs : hw);
  // More producers than kernels would only spawn threads (and, with
  // threads=0, hardware-sized pools) that claim nothing — clamp.
  const unsigned kernel_jobs = std::max<unsigned>(
      1, std::min<std::size_t>(
             cfg_.kernel_jobs != 0 ? cfg_.kernel_jobs : hw,
             selected.size()));

  // Scheduler state: kernel_jobs producers claim kernel indices from a
  // shared cursor and run each kernel in a private ExecutionContext
  // (no shared pool, no shared tallies — runs are fully isolated), then
  // enqueue the kernel's (kernel, machine) stages; the engine pool's
  // workers drain the queue as measurements land.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::size_t>> ready;
  unsigned live_producers = kernel_jobs;
  bool produced_all = false;
  bool aborted = false;
  std::exception_ptr error;
  std::atomic<std::uint64_t> machine_evals{0};
  std::atomic<std::uint64_t> kernel_runs{0};
  std::atomic<std::size_t> next_kernel{0};

  auto abort_with = [&](std::exception_ptr e) {
    std::lock_guard lock(mu);
    aborted = true;
    if (!error) error = std::move(e);
    cv.notify_all();
  };

  // One memoization store for the whole run: machine stages and every
  // producer context share it, so identical hierarchy replays — across
  // repeats, kernels with equal sliced specs, or any jobs split — are
  // simulated once. Memoized results are the results a fresh simulation
  // produces, so byte-identity across (kernel_jobs, jobs) is unaffected.
  auto sim_cache = cfg_.sim_cache ? cfg_.sim_cache
                                  : std::make_shared<memsim::SimCache>();

  auto machine_stage = [&](std::size_t ki, std::size_t mi) {
    KernelResult& kr = results.kernels[ki];
    MachineResult& mr = kr.machines[mi];
    const arch::CpuSpec& cpu = machines[mi];
    mr.cpu = cpu;
    mr.mem = model::profile_memory(cpu, kr.meas, cfg_.trace_refs,
                                   model::kDefaultScaleShift, sim_cache.get());
    mr.perf = model::evaluate_at_turbo(cpu, kr.meas, mr.mem);
    if (cfg_.freq_sweep) {
      for (const auto& fs : cpu.frequency_sweep()) {
        mr.freq_sweep.emplace_back(
            fs, model::evaluate(cpu, fs.ghz, kr.meas, mr.mem));
      }
    }
    machine_evals.fetch_add(1, std::memory_order_relaxed);
  };

  auto produce = [&] {
    try {
      // One context per producer, reused across the kernels it claims:
      // a producer runs its kernels serially, so reuse keeps the
      // isolation (and, since assays are snapshot deltas, the
      // byte-identity) while avoiding a pool construction per kernel.
      ExecutionContext ctx(cfg_.threads);
      for (;;) {
        {
          std::lock_guard lock(mu);
          if (aborted) break;
        }
        const std::size_t ki =
            next_kernel.fetch_add(1, std::memory_order_relaxed);
        if (ki >= selected.size()) break;
        // throws on failed verify
        auto meas = selected[ki]->run(ctx, cfg_.run_config());
        kernel_runs.fetch_add(1, std::memory_order_relaxed);
        if (cfg_.canonical_timing) meas.host_seconds = 0.0;
        results.kernels[ki].meas = std::move(meas);
        {
          std::lock_guard lock(mu);
          for (std::size_t mi = 0; mi < machines.size(); ++mi) {
            ready.emplace_back(ki, mi);
          }
        }
        cv.notify_all();
      }
    } catch (...) {
      // Kernel verification failure, or the context's pool could not be
      // built: abort the study — nothing may escape a producer thread.
      abort_with(std::current_exception());
    }
    {
      std::lock_guard lock(mu);
      if (--live_producers == 0) produced_all = true;
    }
    cv.notify_all();
  };

  auto consume = [&] {
    for (;;) {
      std::pair<std::size_t, std::size_t> task;
      {
        std::unique_lock lock(mu);
        cv.wait(lock,
                [&] { return !ready.empty() || produced_all || aborted; });
        if (aborted) return;  // fail-fast: drop queued stages
        if (ready.empty()) {
          if (produced_all) return;
          continue;
        }
        task = ready.front();
        ready.pop_front();
      }
      try {
        machine_stage(task.first, task.second);
      } catch (...) {
        abort_with(std::current_exception());
        return;
      }
    }
  };

  // Producers get dedicated threads (each spends its time inside kernel
  // runs); the calling thread and the engine pool's workers drain the
  // machine-stage queue. Producer exceptions never escape produce().
  // The join guard makes every exit path safe: if spawning a producer
  // or running the engine pool throws (thread exhaustion), the live
  // producers are told to abort and joined before unwinding destroys
  // the state they reference — a joinable std::thread destructor would
  // otherwise call std::terminate.
  ThreadPool pool(jobs);  // before any producer exists: may throw freely
  std::vector<std::thread> producers;
  producers.reserve(kernel_jobs);
  struct ProducerJoiner {
    std::vector<std::thread>& threads;
    std::mutex& mu;
    bool& aborted;
    ~ProducerJoiner() {
      {
        std::lock_guard lock(mu);
        aborted = true;  // no-op on the normal path: all producers done
      }
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{producers, mu, aborted};
  for (unsigned p = 0; p < kernel_jobs; ++p) producers.emplace_back(produce);

  pool.parallel_for(jobs, [&](std::size_t begin, std::size_t end, unsigned) {
    for (std::size_t i = begin; i < end; ++i) consume();
  });
  for (auto& t : producers) t.join();

  stats_.kernel_runs = kernel_runs.load(std::memory_order_relaxed);
  stats_.machine_evals = machine_evals.load(std::memory_order_relaxed);
  const auto sim_stats = sim_cache->stats();
  stats_.sim_hits = sim_stats.hits;
  stats_.sim_misses = sim_stats.misses;
  if (error) std::rethrow_exception(error);
  return results;
}

StudyConfig golden_config() {
  StudyConfig cfg;
  cfg.scale = 0.2;
  cfg.threads = 1;  // host-independent op counts and FP reductions
  cfg.trace_refs = 120'000;
  cfg.canonical_timing = true;
  // One kernel per workload class: stencil, dense, gather, stream, I/O,
  // plus the paper's Phi-hostile outlier (branchy scalar code).
  cfg.kernels = {"AMG", "HPL", "XSBn", "BABL2", "MxIO", "NGSA"};
  return cfg;
}

}  // namespace fpr::study
