// Fixed-size worker pool with an OpenMP-style parallel_for. The paper's
// benchmarks are MPI+OpenMP; on a single node the relevant behaviour is
// "p workers split the iteration space" — this pool provides exactly that
// with deterministic static chunking so operation counts are stable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fpr {

class ThreadPool {
 public:
  /// Create a pool with `threads` workers (0 = hardware concurrency).
  /// Throws std::system_error if a helper thread cannot start, after
  /// stopping and joining the helpers that did.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Run `body(begin, end, worker_id)` over [0, n) split into contiguous
  /// static chunks, one per worker (the calling thread takes part as
  /// worker 0, so worker ids run from 0 to size()). Blocks until all
  /// chunks complete; the first exception thrown by any chunk is
  /// rethrown on the caller.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t,
                                             unsigned)>& body);

 private:
  struct Job {
    std::size_t n = 0;
    const std::function<void(std::size_t, std::size_t, unsigned)>* body =
        nullptr;
    std::atomic<unsigned> done{0};
    std::exception_ptr error;
    std::mutex error_mu;
  };

  void worker_loop(unsigned id);
  void stop_and_join();
  void run_chunk(Job& job, unsigned worker_index) const;

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Job* job_ = nullptr;
  std::uint64_t job_epoch_ = 0;
  bool stop_ = false;
};

}  // namespace fpr
