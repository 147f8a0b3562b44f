#include "study/study_engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
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

  // Scheduler state: one claim cursor per role (see the header) and one
  // flag per kernel, which the consumers of its units sleep on while it
  // is pending.
  enum : int { kPending = 0, kMeasured, kAborted };
  const std::size_t units = selected.size() * machines.size();
  std::vector<std::atomic<int>> flags(selected.size());  // all kPending
  std::atomic<bool> aborted{false};
  std::mutex error_mu;
  std::exception_ptr error;
  std::atomic<std::uint64_t> machine_evals{0};
  std::atomic<std::uint64_t> kernel_runs{0};
  std::atomic<std::size_t> next_kernel{0};
  std::atomic<std::size_t> next_unit{0};

  // Fail-fast: keep the first exception, stop every claim, and release
  // the consumers asleep on kernels that will now never be measured.
  auto abort_with = [&](std::exception_ptr e) {
    {
      std::lock_guard lock(error_mu);
      if (!error) error = std::move(e);
    }
    aborted.store(true);
    for (auto& flag : flags) {
      int expected = kPending;
      if (flag.compare_exchange_strong(expected, kAborted)) flag.notify_all();
    }
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

  // One context per producer, reused across the kernels it claims: a
  // producer runs its kernels serially, so reuse keeps the isolation
  // (and, since assays are snapshot deltas, the byte-identity) while
  // avoiding a pool construction per kernel.
  auto produce = [&] {
    ExecutionContext ctx(cfg_.threads);
    while (!aborted.load()) {
      const std::size_t ki =
          next_kernel.fetch_add(1, std::memory_order_relaxed);
      if (ki >= selected.size()) return;
      // throws on failed verify
      auto meas = selected[ki]->run(ctx, cfg_.run_config());
      kernel_runs.fetch_add(1, std::memory_order_relaxed);
      if (cfg_.canonical_timing) meas.host_seconds = 0.0;
      results.kernels[ki].meas = std::move(meas);
      flags[ki].store(kMeasured);
      flags[ki].notify_all();
    }
  };

  // Consumers claim (kernel, machine) units in kernel-major order, so with
  // one producer they wait on kernels in the order it measures them.
  auto consume = [&] {
    while (!aborted.load()) {
      const std::size_t unit =
          next_unit.fetch_add(1, std::memory_order_relaxed);
      if (unit >= units) return;
      const std::size_t ki = unit / machines.size();
      flags[ki].wait(kPending);
      if (aborted.load()) return;  // fail-fast: drop the claimed stage
      machine_stage(ki, unit % machines.size());
    }
  };

  // One index per participant: the first kernel_jobs produce, the rest
  // consume. A kernel verification failure, a context pool that could
  // not be built or a throwing machine stage aborts the study; nothing
  // escapes a participant.
  const unsigned participants = kernel_jobs + jobs;
  ThreadPool pool(participants);
  pool.parallel_for(participants, [&](std::size_t i, std::size_t, unsigned) {
    try {
      i < kernel_jobs ? produce() : consume();
    } catch (...) {
      abort_with(std::current_exception());
    }
  });

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
