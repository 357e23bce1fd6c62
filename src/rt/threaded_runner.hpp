#pragma once

#include <memory>
#include <vector>

#include "sim/process.hpp"
#include "sim/round_engine.hpp"
#include "sim/runner.hpp"

namespace da::rt {

/// Multi-threaded executor with the same observable semantics as
/// `sim::SyncRunner`: a `sim::RoundEngine` whose rounds run the nodes'
/// `on_round` in parallel, as one fork-join round on a process-wide
/// one-worker `sweep::ThreadPool` plus the calling thread.
///
/// The engine's round is the synchronous-round discipline the paper's
/// proofs assume ("the clocks on all the fault-free nodes are
/// synchronized", Section 2): every round-r message is routed before any
/// node reads its round-r inbox, and the fork-join closes the round
/// before the next dispatch. Routing (adversary, network, trace,
/// counters) stays on the calling thread, so the threaded runtime
/// decides, counts and traces exactly what the deterministic simulator
/// does, whatever the thread schedule.
class ThreadedRunner {
 public:
  ThreadedRunner(std::vector<std::unique_ptr<sim::Process>> processes,
                 sim::RunOptions options);

  [[nodiscard]] sim::RunResult run();

 private:
  sim::RoundEngine engine_;
};

}  // namespace da::rt
