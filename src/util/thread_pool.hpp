#pragma once
// Fixed-size thread pool with a parallel_for helper.
//
// The CAD flow uses it for embarrassingly parallel sweeps (device sizing
// experiments, random-vector simulation batches).
// Work items must be independent; exceptions thrown by items are captured
// and rethrown (first one wins) on the calling thread. ThreadPool::shared()
// is the one process-wide pool the min-W probe waves run on.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace amdrel {

class ThreadPool {
 public:
  /// n_threads == 0 picks hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// The process-wide pool: hardware_concurrency() threads (min 1),
  /// started on first use and never torn down. Callers that share it
  /// submit() tasks that never throw and join on their own latch: wait()
  /// and parallel_for() would also wait for every other caller's tasks.
  static ThreadPool& shared();

  /// Enqueues a task; wait() joins all outstanding tasks.
  void submit(std::function<void()> task);

  /// Blocks until all submitted tasks finished; rethrows the first captured
  /// exception, if any.
  void wait();

  /// Runs fn(i) for i in [0, n), distributing across the pool, and waits.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// Convenience: one-shot parallel_for on a transient pool sized for the task.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t n_threads = 0);

}  // namespace amdrel
