#include "sweep/thread_pool.hpp"

#include <algorithm>
#include <exception>

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
/// a worker touches it last while holding `mu`, which the caller must
/// take to see `unfinished == 0` and return.
struct ThreadPool::Batch {
  void (*call)(void*, std::size_t);
  void* fn;
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t unfinished;    // chunks not yet finished
  std::exception_ptr error;  // the first exception a chunk threw

  /// Runs one chunk and counts it finished. A worker merges its metric
  /// deltas first, so the caller reads them once `fork_join` returns.
  void run(std::size_t chunk, bool on_worker) {
    std::exception_ptr thrown;
    try {
      call(fn, chunk);
    } catch (...) {
      thrown = std::current_exception();
    }
    if (on_worker) obs::MetricsRegistry::global().flush_this_thread();
    const std::lock_guard<std::mutex> lock(mu);
    if (thrown && !error) error = std::move(thrown);
    if (--unfinished == 0) done_cv.notify_one();
  }
};

ThreadPool::ThreadPool(int threads) {
  const std::size_t count = static_cast<std::size_t>(std::max(1, threads));
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

int ThreadPool::current_worker() const {
  return t_pool == this ? t_worker : -1;
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
    // A worker submitting keeps its task local; external submitters deal
    // round-robin.
    const int self = current_worker();
    target = self >= 0 ? static_cast<std::size_t>(self)
                       : next_++ % workers_.size();
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->queue.push_back(Task{std::move(task)});
  }
  // Notify under mu_: waiters evaluate their predicate (a scan of the
  // queues) while holding mu_, so a notify outside it could land between
  // a waiter's scan and its block, stranding the task (lost wakeup).
  {
    std::lock_guard<std::mutex> lock(mu_);
    work_cv_.notify_one();
  }
}

void ThreadPool::run_batch(std::size_t n, void (*call)(void*, std::size_t),
                           void* fn) {
  if (n == 0) return;
  Batch batch{call, fn, {}, {}, n, {}};
  {
    // Queued and notified under mu_, for the same lost-wakeup reason as
    // in submit().
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t c = 1; c < n; ++c) {
      Worker& w = *workers_[next_++ % workers_.size()];
      const std::lock_guard<std::mutex> qlock(w.mu);
      w.queue.push_back(Task{{}, &batch, c});
    }
    if (n > 1) work_cv_.notify_all();
  }
  batch.run(0, /*on_worker=*/false);
  while (const std::optional<std::size_t> chunk = take_back(batch)) {
    batch.run(*chunk, /*on_worker=*/false);
  }
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(batch.mu);
    batch.done_cv.wait(lock, [&batch] { return batch.unfinished == 0; });
    error = batch.error;
  }
  if (error) std::rethrow_exception(error);
}

std::optional<std::size_t> ThreadPool::take_back(const Batch& batch) {
  for (const auto& worker : workers_) {
    const std::lock_guard<std::mutex> lock(worker->mu);
    std::deque<Task>& queue = worker->queue;
    const auto it =
        std::find_if(queue.rbegin(), queue.rend(),
                     [&batch](const Task& t) { return t.batch == &batch; });
    if (it == queue.rend()) continue;
    const std::size_t chunk = it->chunk;
    queue.erase(std::next(it).base());
    return chunk;
  }
  return std::nullopt;
}

bool ThreadPool::try_pop(std::size_t index, Task& task) {
  Worker& w = *workers_[index];
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.queue.empty()) return false;
  task = std::move(w.queue.front());
  w.queue.pop_front();
  return true;
}

bool ThreadPool::try_steal(std::size_t thief, Task& task) {
  const std::size_t n = workers_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Worker& victim = *workers_[(thief + k) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.queue.empty()) continue;
    task = std::move(victim.queue.back());
    victim.queue.pop_back();
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  t_pool = this;
  t_worker = static_cast<int>(index);
  for (;;) {
    Task task;
    if (try_pop(index, task) || try_steal(index, task)) {
      if (task.batch != nullptr) {
        task.batch->run(task.chunk, /*on_worker=*/true);
        continue;
      }
      task.fn();
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
      if (pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return;
    // Re-check queues under no lock inversion: cheap spurious wakeups are
    // fine; missed notifies are not, so wait with a predicate re-probe.
    work_cv_.wait(lock, [this, index] {
      if (stop_) return true;
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        std::lock_guard<std::mutex> qlock(workers_[i]->mu);
        if (!workers_[i]->queue.empty()) return true;
      }
      return false;
    });
    if (stop_) return;
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace da::sweep
