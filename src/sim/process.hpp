#pragma once

#include <memory>
#include <vector>

#include "sim/message.hpp"
#include "util/contracts.hpp"
#include "util/ids.hpp"
#include "util/value.hpp"

namespace da::sim {

/// Per-node protocol logic, written once and executed by every runtime
/// (the deterministic `RoundEngine`, the pool-parallel `ThreadedRunner`
/// and the discrete-event `EventRunner`).
///
/// Lifecycle driven by a runner:
///   1. `start(out)` is called once and appends the node's round-0 sends
///      to `out`.
///   2. For r = 0..total_rounds()-1, `on_round(r, inbox, out)` receives
///      exactly the messages addressed to this node that were sent in round
///      r (after adversary corruption and network filtering) and appends
///      the node's round r+1 sends to `out`. Messages appended in the final
///      round are discarded.
///   3. `decide()` is queried after the final round.
///
/// `out` is the runner's held outbox for this node: empty on entry, owned
/// by the runner and reused across rounds, so a process that only appends
/// never touches the allocator once the buffer is warm.
class Process {
 public:
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] virtual NodeId id() const = 0;

  /// Number of communication rounds this protocol needs.
  [[nodiscard]] virtual int total_rounds() const = 0;

  /// Appends the round-0 sends to `out`.
  virtual void start(std::vector<Message>& out) = 0;

  /// Handles the messages delivered in round `round`; appends the round+1
  /// sends to `out`.
  virtual void on_round(int round, const std::vector<Message>& inbox,
                        std::vector<Message>& out) = 0;

  /// The node's decision after the final round.
  [[nodiscard]] virtual Value decide() const = 0;

  /// Deep copy of the process mid-execution, for the checkpoint/fork
  /// round engine (sim/round_engine.hpp). Protocol process types
  /// (EIG-family, SM) override this; the default is a contract violation
  /// so ad-hoc processes that never meet a checkpoint need not bother.
  [[nodiscard]] virtual std::unique_ptr<Process> clone() const {
    DA_EXPECTS(false && "Process::clone not implemented for this type");
    return nullptr;
  }

  /// Copies `other`'s execution state into this process, reusing existing
  /// storage (the allocation-free form of clone() used when forking into
  /// a live engine). `other` must be the same concrete type over the same
  /// instance topology (same id, sender, participants, depth).
  virtual void assign_from(const Process& other) {
    (void)other;
    DA_EXPECTS(false && "Process::assign_from not implemented for this type");
  }

 protected:
  Process() = default;
};

}  // namespace da::sim
