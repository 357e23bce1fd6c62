#include "rt/threaded_runner.hpp"

#include <utility>

#include "sweep/thread_pool.hpp"

namespace da::rt {

ThreadedRunner::ThreadedRunner(
    std::vector<std::unique_ptr<sim::Process>> processes,
    sim::RunOptions options)
    : engine_(std::move(processes), std::move(options)) {}

sim::RunResult ThreadedRunner::run() {
  // One long-lived worker plus the stepping caller: nodes still step on
  // two threads at once (what the thread sanitizer needs to see), and no
  // run pays to start or join a thread. Created on first use; concurrent
  // runs share it without waiting on each other (fork-join batches are
  // counted per caller).
  static sweep::ThreadPool pool(1);
  return engine_.run(&pool);
}

}  // namespace da::rt
