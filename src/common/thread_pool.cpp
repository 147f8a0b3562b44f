#include "common/thread_pool.hpp"

#include <algorithm>

namespace fpr {

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads != 0 ? threads : std::thread::hardware_concurrency();
  n = std::max(1u, n);
  // Worker 0 is the calling thread; spawn n-1 helpers. If a start fails,
  // the helpers already running are stopped and joined before the
  // exception leaves: a joinable std::thread in workers_ would otherwise
  // call std::terminate as it unwinds.
  workers_.reserve(n - 1);
  try {
    for (unsigned id = 1; id < n; ++id) {
      workers_.emplace_back([this, id] { worker_loop(id); });
    }
  } catch (...) {
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run_chunk(Job& job, unsigned worker_index) const {
  const std::size_t n = job.n;
  const unsigned p = size() + 1;
  const std::size_t chunk = (n + p - 1) / p;
  const std::size_t begin = std::min(n, worker_index * chunk);
  const std::size_t end = std::min(n, begin + chunk);
  if (begin < end) {
    try {
      (*job.body)(begin, end, worker_index);
    } catch (...) {
      std::lock_guard lock(job.error_mu);
      if (!job.error) job.error = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop(unsigned id) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || job_epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = job_epoch_;
      job = job_;
    }
    if (job != nullptr) {
      run_chunk(*job, id);
      if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          static_cast<unsigned>(workers_.size())) {
        // Take the mutex before notifying: the counter is updated outside
        // it, so an unlocked notify could fire between the caller's
        // predicate check and its sleep (lost wakeup -> caller hangs).
        std::lock_guard lock(mu_);
        cv_done_.notify_one();
      }
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, unsigned)>& body) {
  if (n == 0) return;
  if (workers_.empty()) {
    body(0, n, 0);
    return;
  }
  Job job;
  job.n = n;
  job.body = &body;
  {
    std::lock_guard lock(mu_);
    job_ = &job;
    ++job_epoch_;
  }
  cv_start_.notify_all();
  run_chunk(job, 0);  // caller participates as worker 0
  {
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [&] {
      return job.done.load(std::memory_order_acquire) ==
             static_cast<unsigned>(workers_.size());
    });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace fpr
