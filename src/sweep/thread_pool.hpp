#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace da::sweep {

/// A small work-stealing thread pool.
///
/// Each worker owns a deque; `submit` deals tasks round-robin across the
/// deques, a worker pops from the front of its own deque and, when empty,
/// steals from the *back* of a sibling's. Stealing keeps all cores busy
/// when shard costs are skewed (behaviour shards containing a violation
/// exit early; subsets with a faulty sender have 4x the work of the rest).
///
/// The pool makes no ordering promises — determinism of sweep results is
/// the shard plan's job, not the scheduler's (see sweep.hpp).
class ThreadPool {
 public:
  /// Spawns `threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int threads);

  /// Drains nothing: outstanding tasks are completed before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Thread-safe; may be called from worker threads
  /// (the task lands on the submitting worker's own deque in that case).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished running. Does not
  /// wait for, or count, `fork_join` chunks.
  void wait_idle();

  /// One fork-join round: runs `fn(i)` for every i in [0, n) and returns
  /// once all of them have finished. Chunks 1..n-1 are queued for the
  /// workers; the caller runs chunk 0 itself, then takes back and runs any
  /// of its chunks still queued, and sleeps only while a chunk of this
  /// batch is running on a worker. Completion is counted per batch, so
  /// concurrent callers never wait on each other (or on `submit`ted
  /// tasks), and a batch started from inside a pool task cannot deadlock.
  ///
  /// A worker merges its thread-local metric deltas (obs/metrics.hpp)
  /// before its chunk counts as finished, so the caller sees every count
  /// once `fork_join` returns. The first exception thrown by a chunk is
  /// rethrown here, once, after every chunk has finished.
  template <class Fn>
  void fork_join(std::size_t n, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_batch(n, [](void* f, std::size_t i) { (*static_cast<F*>(f))(i); },
              const_cast<void*>(static_cast<const void*>(&fn)));
  }

  [[nodiscard]] int threads() const {
    return static_cast<int>(workers_.size());
  }

  /// Index of the calling worker thread within this pool, or -1 when
  /// called from a non-worker thread.
  [[nodiscard]] int current_worker() const;

 private:
  struct Batch;

  /// A queued unit of work: a `submit`ted task, or (when `batch` is set)
  /// chunk `chunk` of a `fork_join` batch.
  struct Task {
    std::function<void()> fn;
    Batch* batch = nullptr;
    std::size_t chunk = 0;
  };

  struct Worker {
    std::mutex mu;
    std::deque<Task> queue;
  };

  void run_batch(std::size_t n, void (*call)(void*, std::size_t), void* fn);
  std::optional<std::size_t> take_back(const Batch& batch);
  void worker_loop(std::size_t index);
  bool try_pop(std::size_t index, Task& task);
  bool try_steal(std::size_t thief, Task& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;                  // guards cv waits + counters below
  std::condition_variable work_cv_;   // "a task was queued / stop"
  std::condition_variable idle_cv_;   // "a submitted task finished"
  std::size_t pending_ = 0;        // submitted but not yet finished
  std::size_t next_ = 0;           // round-robin queue cursor
  bool stop_ = false;
};

}  // namespace da::sweep
