#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace coupon {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    COUPON_ASSERT_MSG(!stop_, "submit() on a stopped ThreadPool");
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stop_ set and queue drained
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // exceptions are captured into the future
  }
}

}  // namespace coupon
