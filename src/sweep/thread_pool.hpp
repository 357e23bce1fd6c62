#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace da::sweep {

/// A small fork-join pool.
///
/// Its one operation, `fork_join`, runs an indexed batch. Each batch has
/// a claim cursor: the calling thread claims its own batch's indices in
/// ascending order, and each idle worker claims the next index of the
/// oldest batch that still has unclaimed ones. Self-scheduling from one
/// cursor balances skewed index costs (behaviour shards containing a
/// violation exit early; subsets with a faulty sender have 4x the work of
/// the rest) without per-worker queues or stealing.
///
/// The pool makes no promise about which thread runs an index —
/// determinism of sweep results is the shard plan's job, not the
/// scheduler's (see sweep.hpp).
class ThreadPool {
 public:
  /// Spawns `workers` worker threads (negative values count as 0). With
  /// no workers, `fork_join` runs every index on the caller, in order.
  explicit ThreadPool(int workers);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// One fork-join round: runs `fn(i)` for every i in [0, n) and returns
  /// once all of them have finished. The caller runs indices itself until
  /// none is left to claim, and sleeps only while an index of this batch
  /// is still running on a worker. Completion is counted per batch, so
  /// concurrent callers never wait on each other, and a batch started
  /// from inside another batch's index cannot deadlock.
  ///
  /// A worker merges its thread-local metric deltas (obs/metrics.hpp)
  /// before its index counts as finished, so the caller sees every count
  /// once `fork_join` returns. The first exception thrown by an index is
  /// rethrown here, once, after every index has finished.
  template <class Fn>
  void fork_join(std::size_t n, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_batch(n, [](void* f, std::size_t i) { (*static_cast<F*>(f))(i); },
              const_cast<void*>(static_cast<const void*>(&fn)));
  }

  /// Number of worker threads (the caller of `fork_join` is not counted).
  [[nodiscard]] int threads() const {
    return static_cast<int>(threads_.size());
  }

  /// Index of the calling worker thread within this pool, or -1 when
  /// called from a non-worker thread.
  [[nodiscard]] int current_worker() const;

 private:
  struct Batch;

  void run_batch(std::size_t n, void (*call)(void*, std::size_t), void* fn);
  std::size_t claim(Batch& batch);
  void finish(Batch& batch, std::exception_ptr thrown);
  void worker_loop(int index);

  std::mutex mu_;  // guards the three fields below and every open batch
  std::condition_variable work_cv_;  // "a batch was opened / stop"
  std::vector<Batch*> open_;  // batches with unclaimed indices, oldest first
  bool stop_ = false;

  std::vector<std::thread> threads_;  // last: the workers use the above
};

}  // namespace da::sweep
