#include "llmprism/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <numeric>

namespace llmprism {

ThreadPool::ThreadPool(std::size_t num_workers) {
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::resolve(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

namespace {

/// Shared state of one parallel_for: a work-stealing index counter. Every
/// participant (workers and the caller) claims the next unclaimed index
/// until the range is exhausted, so load imbalance between iterations is
/// absorbed automatically.
struct ForLoop {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  ///< first iteration failure; guarded by mu

  void run_indices() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        // Lock pairs with the waiting caller's predicate check, so the
        // final notify cannot slip between its check and its wait.
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  const auto loop = std::make_shared<ForLoop>();
  loop->fn = &fn;
  loop->n = n;

  // One driver task per worker (capped by the iteration count minus the
  // caller's share). A driver arriving after the range is exhausted claims
  // an out-of-range index and returns immediately, so stale tasks are
  // harmless — `loop` is kept alive by the shared_ptr captures.
  const std::size_t drivers = std::min(workers_.size(), n - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t d = 0; d < drivers; ++d) {
      tasks_.emplace_back([loop] { loop->run_indices(); });
    }
  }
  cv_.notify_all();

  loop->run_indices();  // the calling thread participates

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(loop->mu);
    loop->cv.wait(lock, [&] {
      return loop->done.load(std::memory_order_acquire) == loop->n;
    });
    error = loop->error;
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->parallel_for(n, fn);
}

std::vector<std::size_t> row_chunks(std::size_t n, const ThreadPool* pool) {
  // A few chunks per lane let the work-claiming loop even out chunks of
  // uneven cost; the count is fixed by the lane count alone, never by n.
  const std::size_t chunks = pool == nullptr ? 1 : 4 * pool->concurrency();
  std::vector<std::size_t> bounds(chunks + 1);
  for (std::size_t c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;
  return bounds;
}

std::vector<std::size_t> chunk_key_prefix(
    std::span<std::vector<std::size_t>> counts, std::size_t keys,
    ThreadPool* pool) {
  // Over contiguous key ranges: per-key totals, one exclusive sum over the
  // keys, then each range's running offsets chunk by chunk. Every walk runs
  // along the chunks' rows; a walk down the chunks of one key would stride.
  const std::vector<std::size_t> ranges = row_chunks(keys, pool);
  std::vector<std::size_t> key_begin(keys + 1, 0);
  parallel_for(pool, ranges.size() - 1, [&](std::size_t r) {
    for (const std::vector<std::size_t>& count : counts) {
      const std::size_t end = std::min(ranges[r + 1], count.size());
      for (std::size_t k = ranges[r]; k < end; ++k) key_begin[k] += count[k];
    }
  });
  std::exclusive_scan(key_begin.begin(), key_begin.end(), key_begin.begin(),
                      std::size_t{0});
  parallel_for(pool, ranges.size() - 1, [&](std::size_t r) {
    const std::size_t lo = ranges[r];
    std::vector<std::size_t> next(
        key_begin.begin() + static_cast<std::ptrdiff_t>(lo),
        key_begin.begin() + static_cast<std::ptrdiff_t>(ranges[r + 1]));
    for (std::vector<std::size_t>& count : counts) {
      const std::size_t end = std::min(ranges[r + 1], count.size());
      for (std::size_t k = lo; k < end; ++k) {
        const std::size_t items = count[k];
        count[k] = next[k - lo];
        next[k - lo] += items;
      }
    }
  });
  return key_begin;
}

}  // namespace llmprism
