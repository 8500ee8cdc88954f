#pragma once

/// \file queue.hpp
/// Multi-producer multi-consumer blocking queue — the delivery primitive
/// behind each network endpoint's mailbox.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>

namespace coupon::comm {

/// Why a pop returned without an item — or with one. Crash detection
/// needs "the peer went away" (kClosed, terminal) to be distinguishable
/// from "the peer is slow" (kTimeout, retryable).
enum class PopStatus {
  kItem,     ///< an item was delivered
  kTimeout,  ///< the deadline passed with the queue open and empty
  kClosed,   ///< the queue is closed and drained — nothing will ever arrive
};

/// Unbounded MPMC FIFO with blocking pop and close semantics.
///
/// After `close()`, pushes are rejected and pops drain the remaining
/// items, then report kClosed — the standard graceful-shutdown contract
/// for worker loops.
template <typename T>
class BlockingQueue {
 public:
  /// Enqueues an item. Returns false if the queue is closed.
  bool push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        return false;
      }
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocking pop with a distinguishable outcome: kItem with `out`
  /// assigned, or kClosed once the queue is closed and drained.
  PopStatus pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    return take_locked(out);
  }

  /// Deadline pop with a distinguishable outcome: kItem with `out`
  /// assigned, kTimeout when the deadline passed with the queue still
  /// open, or kClosed once closed and drained.
  PopStatus pop_for(std::chrono::milliseconds timeout, T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, timeout,
                      [this] { return closed_ || !items_.empty(); })) {
      return PopStatus::kTimeout;
    }
    return take_locked(out);
  }

  /// Marks the queue closed and wakes all waiters.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  /// Predicate already satisfied under `lock`: either an item exists
  /// (closed queues still drain) or the queue is closed and empty.
  PopStatus take_locked(T& out) {
    if (items_.empty()) {
      return PopStatus::kClosed;
    }
    out = std::move(items_.front());
    items_.pop_front();
    return PopStatus::kItem;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace coupon::comm
