#include "rt/threaded_runner.hpp"

#include <algorithm>
#include <utility>

#include "sweep/thread_pool.hpp"

namespace da::rt {

ThreadedRunner::ThreadedRunner(
    std::vector<std::unique_ptr<sim::Process>> processes,
    sim::RunOptions options)
    : engine_(std::move(processes), std::move(options)) {}

sim::RunResult ThreadedRunner::run() {
  // Two workers is the smallest pool that still runs nodes concurrently
  // (what the thread sanitizer needs to see); thread start-up dominates
  // a small execution, so wider pools only cost time.
  const int workers = std::min(engine_.node_count(), 2);
  sweep::ThreadPool pool(workers);
  return engine_.run(&pool);
}

}  // namespace da::rt
