#pragma once

#include <cstdint>
#include <vector>

#include "sim/message.hpp"

namespace da::sim {

/// Models the link layer a send crosses after the adversary's `corrupt`
/// (a null model means reliable links with detectable absence, the
/// assumptions (a)/(b) of Section 4).
class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  /// Appends to `out` the copies of `msg` the link delivers: none (the
  /// receiver observes an absent message), one, or several (duplication
  /// faults, src/inject/). A copy's content may differ from `msg` (relay
  /// channels over a sparse graph, where faulty interior nodes corrupt
  /// their copy). What `out` already holds is left alone.
  ///
  /// Returns the in-window holdback of the appended copies: an extra
  /// delivery delay, as a fraction [0,1) of the receiver's round window
  /// remaining after link latency. Only the event-driven runtime reads it;
  /// the round-synchronous runtimes canonicalize intra-round order
  /// (sort_inbox), so a holdback perturbs real-time arrival order without
  /// changing any observable decision — which is exactly what the
  /// differential-replay harness asserts.
  ///
  /// Copies and holdback must be a pure function of the message identity,
  /// never of call order, so every runtime observes the same execution.
  virtual double transit(const Message& msg, std::vector<Message>& out) = 0;
};

/// Section 6.1 relaxation: when more than m nodes are faulty, clock
/// synchronization can no longer be guaranteed, so a fault-free node "may
/// incorrectly declare a message from another fault-free node to be absent
/// (due to time-outs)". We model that as an i.i.d. drop with probability
/// `drop_prob` on fault-free->fault-free messages, enabled only when the
/// scenario's fault count exceeds m (set via `set_active`).
///
/// Drops are a pure function of (seed, from, to, round, path) so the
/// deterministic and threaded runtimes observe identical behaviour.
class FalseTimeoutNetwork final : public NetworkModel {
 public:
  FalseTimeoutNetwork(double drop_prob, std::uint64_t seed)
      : drop_prob_(drop_prob), seed_(seed) {}

  void set_active(bool active) { active_ = active; }

  double transit(const Message& msg, std::vector<Message>& out) override;

 private:
  double drop_prob_;
  std::uint64_t seed_;
  bool active_ = false;
};

}  // namespace da::sim
