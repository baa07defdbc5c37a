// Deterministic parallel execution for embarrassingly parallel loops.
//
// The simulator's hot layers — per-root opportunistic-path tables, NCL
// metrics, experiment repetitions and scheme cells — are grids of
// independent computations. This module provides a fixed-size thread pool
// and a `parallel_for(threads, n, fn)` primitive that runs `fn(0..n-1)` on
// the pool, plus an index-ordered map helper so results are collected in
// index order regardless of completion order. Determinism contract: every
// item computes from its index alone (no shared mutable state, no
// shared-stream RNG draws), so output is bit-identical for any thread
// count, 1 included.
//
// Nested use is safe: a parallel_for issued from inside a pool task runs
// inline on the calling worker (no new threads, no deadlock), which keeps
// e.g. a parallel replay whose cells themselves call parallel NCL selection
// from oversubscribing the machine.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <condition_variable>

namespace dtn {

/// Resolves a thread-count knob: 0 = hardware_concurrency (min 1),
/// n > 0 = exactly n, negative = error.
int resolve_threads(int threads);

/// Fixed-size pool of worker threads executing indexed loop batches.
///
/// One batch runs at a time; concurrent external submitters serialize.
/// The submitting thread participates in the batch, so a pool constructed
/// for `threads` total concurrency spawns `threads - 1` workers.
class ThreadPool {
 public:
  /// `threads` = total desired concurrency (0 = hardware_concurrency).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers + the participating caller.
  int thread_count() const;

  /// Runs fn(i) for every i in [0, n), blocking until all items complete.
  /// At most `thread_count()` items execute concurrently. If any item
  /// throws, the remaining items still run and the exception thrown by the
  /// lowest index is rethrown here (deterministic regardless of schedule).
  /// Called from inside a pool task, runs inline on the calling thread.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Same, with concurrency additionally capped at `max_threads`; grows the
  /// pool (up to an internal bound) when it has fewer workers than needed.
  void parallel_for_capped(std::size_t n,
                           const std::function<void(std::size_t)>& fn,
                           int max_threads);

  /// True on threads currently executing a pool item (workers, and callers
  /// while they participate in their own batch).
  static bool in_worker();

 private:
  void worker_loop(std::uint64_t start_generation);
  void run_items(const std::function<void(std::size_t)>& fn, std::size_t n);
  void grow_to_locked(int threads);

  // Serializes external submitters and pool growth.
  std::mutex submit_mutex_;

  // Guards everything below.
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t batch_size_ = 0;
  std::size_t worker_cap_ = 0;  ///< workers allowed into the current batch
  std::size_t active_ = 0;      ///< workers not yet done with the batch
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::size_t error_index_ = 0;

  // Batch progress, shared lock-free by participants.
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> entered_{0};
};

/// Process-wide shared pool (grows on demand). All library-level
/// parallel_for calls go through it so nested layers share one set of
/// threads instead of multiplying them.
ThreadPool& global_pool();

/// Runs fn(i) for i in [0, n) with the given concurrency knob
/// (resolve_threads semantics; 1 = plain serial loop, bit-for-bit the
/// legacy path). Nested calls from pool workers run inline.
void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Deterministic map: out[i] = fn(i), computed in parallel, returned in
/// index order regardless of completion order. The element type needs no
/// default constructor.
template <typename Fn>
auto parallel_map(int threads, std::size_t n, Fn&& fn) {
  using R = std::decay_t<decltype(fn(std::size_t{0}))>;
  std::vector<std::optional<R>> slots(n);
  parallel_for(threads, n,
               [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace dtn
