#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace amdrel {

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  // Leaked: its workers stay parked on work_cv_ through static
  // destruction instead of racing it.
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Chunked dynamic scheduling: shared atomic index, one task per worker.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  std::size_t tasks = std::min(n, workers_.size());
  for (std::size_t t = 0; t < tasks; ++t) {
    submit([next, n, &fn] {
      for (;;) {
        std::size_t i = next->fetch_add(1);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  wait();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t n_threads) {
  ThreadPool pool(n_threads);
  pool.parallel_for(n, fn);
}

}  // namespace amdrel
