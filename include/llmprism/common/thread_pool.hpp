// A minimal shared-work-queue thread pool for the analysis side's fan-out
// loops (per-job analysis in Prism::analyze, per-window analysis in
// OnlineMonitor::ingest).
//
// Design constraints (see DESIGN.md, "Concurrency model"):
//  * parallel_for is the only primitive. Deterministic results fall out of
//    the usage discipline: every task owns a pre-sized output slot indexed
//    by its loop index and shares no mutable state, so scheduling order
//    cannot influence the result.
//  * The calling thread always participates in the loop, so a pool with
//    zero workers degenerates to the plain sequential in-order loop — the
//    num_threads = 1 legacy path is literally the same code, and progress
//    never depends on a free worker. This also makes nested or concurrent
//    parallel_for calls (several OnlineMonitor windows each fanning out
//    their jobs) deadlock-free on shared or separate pools.
//  * Exceptions thrown by an iteration are captured and rethrown on the
//    calling thread once the loop has drained (first one wins).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace llmprism {

class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (0 is valid: every loop then runs
  /// inline on the calling thread).
  explicit ThreadPool(std::size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }
  /// Threads a loop can occupy: workers plus the calling thread.
  [[nodiscard]] std::size_t concurrency() const { return workers_.size() + 1; }

  /// Resolve a `num_threads` config knob: 0 -> one thread per hardware
  /// thread (at least 1), anything else -> the requested count.
  [[nodiscard]] static std::size_t resolve(std::size_t requested);

  /// Run fn(i) for every i in [0, n). Blocks until all iterations are done;
  /// the calling thread works alongside the pool. Safe to call from several
  /// threads at once and from inside another pool's loop.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

/// Convenience wrapper: fan out on `pool`, or run the exact sequential
/// in-order loop when `pool` is null (the single-threaded configuration).
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Split rows [0, n) into contiguous chunks for a count / prefix / scatter
/// pass: four per lane of `pool`, or the one chunk [0, n) with a null
/// pool. Chunk c covers [bounds[c], bounds[c + 1]); chunks may be empty
/// when n is smaller than the chunk count.
[[nodiscard]] std::vector<std::size_t> row_chunks(std::size_t n,
                                                  const ThreadPool* pool);

/// The exclusive prefix over (key, chunk) of a count / prefix / scatter
/// pass over row chunks, taken in place: counts[c][k], chunk c's item count
/// for key k (at most `keys` entries; a shorter vector counts 0 for the
/// keys past its end), becomes the slot of chunk c's first item of key k.
/// Keys are laid out in ascending order, and within a key chunk c's items
/// follow every earlier chunk's, so a scatter that walks each chunk in row
/// order keeps row order within every key. Returns keys + 1 offsets: key
/// k's items fill [begin[k], begin[k + 1]). With a pool the sums run over
/// key ranges on it; the offsets do not depend on the lane count.
[[nodiscard]] std::vector<std::size_t> chunk_key_prefix(
    std::span<std::vector<std::size_t>> counts, std::size_t keys,
    ThreadPool* pool);

}  // namespace llmprism
