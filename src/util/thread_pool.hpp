#pragma once

/// \file thread_pool.hpp
/// Fixed-size worker pool with a blocking task queue.
///
/// The pool is deliberately simple (mutex + condition variable); its one
/// production user, `driver::run_sweep`, submits one whole experiment
/// cell per task, so queue contention is negligible.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace coupon {

/// Fixed-size thread pool executing `std::function<void()>` tasks.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Joins all workers after draining outstanding tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// Number of worker threads.
  std::size_t size() const { return threads_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace coupon
