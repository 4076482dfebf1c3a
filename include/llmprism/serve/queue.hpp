// The bounded shard ingest queue of the serving daemon (DESIGN.md §15).
//
// The daemon's reader threads hand parsed flow chunks to shard workers
// through this queue, and it is THE backpressure mechanism: push blocks
// while the queue is full, so a shard whose analysis falls behind slows
// its producers down instead of buffering without bound.
//
// A mutex and two condition variables around a deque. Every operation
// takes the one lock, so the contract follows directly:
//  * per-producer FIFO (chunks of one connection are analyzed in send
//    order);
//  * exactly `capacity` items fit, and depth() is exact;
//  * push blocks while full and fails once closed;
//  * pop drains whatever was accepted before close, then returns nullopt
//    — no accepted item is lost.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace llmprism::serve {

/// What one blocking push did — `blocked` feeds the backpressure
/// telemetry (counted once per blocking episode, not per retry).
struct PushOutcome {
  bool accepted = false;  ///< false: the queue was closed, item dropped
  bool blocked = false;   ///< the producer had to wait for capacity
};

/// Push blocks while full (not accepted once closed); pop blocks until an
/// item arrives or the queue is closed AND drained.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] PushOutcome push(T item) {
    PushOutcome outcome;
    std::unique_lock lock(mu_);
    if (items_.size() >= capacity_ && !closed_) {
      outcome.blocked = true;
      not_full_.wait(lock,
                     [&] { return items_.size() < capacity_ || closed_; });
    }
    if (closed_) return outcome;
    items_.push_back(std::move(item));
    outcome.accepted = true;
    not_empty_.notify_one();
    return outcome;
  }

  [[nodiscard]] std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  void close() {
    {
      const std::lock_guard lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Items currently queued.
  [[nodiscard]] std::size_t depth() const {
    const std::lock_guard lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace llmprism::serve
