#include "sweep/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace da::sweep {

namespace {

/// Which pool (if any) the current thread is a worker of, and its index.
/// Plain thread_locals: a worker belongs to exactly one pool for its
/// whole lifetime.
thread_local const ThreadPool* t_pool = nullptr;
thread_local int t_worker = -1;

}  // namespace

/// One `fork_join` call's shared state. It lives on the caller's stack;
/// every field but the immutable first three is guarded by the pool's
/// `mu_`, which a worker holds when it touches the batch last and which
/// the caller must take to see it done and return.
struct ThreadPool::Batch {
  void (*call)(void*, std::size_t);
  void* fn;
  std::size_t n;
  std::size_t next = 0;     // claim cursor: the first unclaimed index
  std::size_t running = 0;  // claimed indices not yet finished
  std::exception_ptr error;  // the first exception an index threw
  std::condition_variable done_cv;

  /// Runs index `i`; returns what it threw, if anything.
  std::exception_ptr run(std::size_t i) const {
    try {
      call(fn, i);
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  }
};

ThreadPool::ThreadPool(int workers) {
  const int count = std::max(0, workers);
  threads_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

int ThreadPool::current_worker() const {
  return t_pool == this ? t_worker : -1;
}

std::size_t ThreadPool::claim(Batch& batch) {
  const std::size_t i = batch.next++;
  ++batch.running;
  if (batch.next == batch.n) {
    open_.erase(std::find(open_.begin(), open_.end(), &batch));
  }
  return i;
}

void ThreadPool::finish(Batch& batch, std::exception_ptr thrown) {
  if (thrown && !batch.error) batch.error = std::move(thrown);
  // Notified under mu_: once the caller sees the batch done it returns
  // and the batch is gone.
  if (--batch.running == 0) batch.done_cv.notify_one();
}

void ThreadPool::run_batch(std::size_t n, void (*call)(void*, std::size_t),
                           void* fn) {
  if (n == 0) return;
  Batch batch{call, fn, n, 0, 0, nullptr, {}};
  std::unique_lock<std::mutex> lock(mu_);
  open_.push_back(&batch);
  if (n > 1 && !threads_.empty()) work_cv_.notify_all();
  while (batch.next < n) {
    const std::size_t i = claim(batch);
    lock.unlock();
    std::exception_ptr thrown = batch.run(i);
    lock.lock();
    finish(batch, std::move(thrown));
  }
  batch.done_cv.wait(lock, [&batch] { return batch.running == 0; });
  std::exception_ptr error = std::move(batch.error);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop(int index) {
  t_pool = this;
  t_worker = index;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !open_.empty(); });
    if (stop_) return;
    Batch& batch = *open_.front();
    const std::size_t i = claim(batch);
    lock.unlock();
    std::exception_ptr thrown = batch.run(i);
    // Merged before the index counts as finished, so the caller reads
    // every count once `fork_join` returns.
    obs::MetricsRegistry::global().flush_this_thread();
    lock.lock();
    finish(batch, std::move(thrown));
  }
}

}  // namespace da::sweep
