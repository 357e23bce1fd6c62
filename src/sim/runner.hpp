#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/decisions.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/trace.hpp"
#include "util/contracts.hpp"
#include "util/ids.hpp"

namespace da::sim {

/// Everything a runner needs besides the processes themselves.
struct RunOptions {
  /// Ids of Byzantine nodes. Must be process ids.
  std::vector<NodeId> faulty{};
  /// Controls all faulty nodes. May be null iff `faulty` is empty.
  Adversary* adversary = nullptr;
  /// Link model; null means reliable delivery.
  NetworkModel* network = nullptr;
  /// Optional transcript capture (every delivered message).
  Trace* trace = nullptr;
};

/// The one record of one protocol execution, from the runtime to the
/// verdict: every runtime fills it, the `da::DegradableAgreement` and
/// `da::LamportAgreement` facades return it, and the checkers read its
/// decisions as they are.
struct RunResult {
  /// Every node's decision (including the sender's, which for fault-free
  /// senders is its own value by construction of the protocols). A flat
  /// sorted vector under a map-like surface — see sim/decisions.hpp.
  Decisions decisions;
  std::size_t messages_sent = 0;
  std::size_t messages_delivered = 0;
  int rounds = 0;
};

/// Dense NodeId -> process table behind the runtimes' indexed inbox
/// buffers and their faulty-sender test: `at(id)` is the process position,
/// or npos for ids no process owns (only a fabricated message can aim at
/// one; `route` drops it), and `faulty(id)` says whether a process id is
/// in the run's faulty set.
class NodeIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Every process id must be unique and every `faulty` id a process id.
  NodeIndex(const std::vector<std::unique_ptr<Process>>& processes,
            const std::vector<NodeId>& faulty);

  [[nodiscard]] std::size_t at(NodeId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < index_.size()
               ? index_[static_cast<std::size_t>(id)].position
               : npos;
  }

  /// True if process `id` (which must be a process id) is faulty.
  [[nodiscard]] bool faulty(NodeId id) const {
    return index_[static_cast<std::size_t>(id)].faulty;
  }

  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  struct Entry {
    std::size_t position = npos;  // npos when no process owns the id
    bool faulty = false;
  };
  std::vector<Entry> index_;  // by NodeId
  std::size_t count_ = 0;
};

/// Canonical inbox order used by every runtime.
void sort_inbox(std::vector<Message>& inbox);

/// Counts one fabricated message dropped by `route` for aiming at a node
/// outside the instance (`sim.fabrications_dropped`).
void count_dropped_fabrication();

/// What the link does to one send. A faulty sender's own message goes
/// through the adversary's `corrupt`, which may rewrite the content or omit
/// the message but not impersonate another sender, redirect it or move it
/// to another round: receivers would reject those, so `from`/`to`/`round`
/// are restored. Fabricated messages already carry adversarial content and
/// skip `corrupt`. Then the network model's `transit` appends zero (drop),
/// one or several (duplicate) copies to `copies`, the runtime's held
/// buffer, which is cleared first; reliable links (null network) pass the
/// message on without touching it. Each copy goes to `sink(copy,
/// holdback)` with the model's holdback fraction (0 on reliable links).
template <typename Sink>
void filter_fanout(const Message& msg, const RunOptions& options,
                   bool corrupt, std::vector<Message>& copies, Sink&& sink) {
  const auto transit = [&](const Message& out) {
    if (options.network == nullptr) {
      sink(out, 0.0);
      return;
    }
    copies.clear();
    const double holdback = options.network->transit(out, copies);
    for (const Message& copy : copies) sink(copy, holdback);
  };
  if (!corrupt) {
    transit(msg);
    return;
  }
  std::optional<Message> lie = options.adversary->corrupt(msg);
  if (!lie) return;
  lie->from = msg.from;
  lie->to = msg.to;
  lie->round = msg.round;
  transit(*lie);
}

/// The one message-dispatch rule, shared by `RoundEngine` (so also the
/// threaded runtime) and `event::EventRunner`. Stamps every message of
/// `from`'s round-`round` outbox with the round, passes it through
/// `filter_fanout` (with `copies` as its buffer), and hands each
/// resulting copy to `deliver(receiver_index, copy, holdback)`.
/// Honest senders and the normalized `corrupt` can only address
/// participants, but `fabricate` may aim anywhere: a copy for a node
/// outside `index` is dropped here and counted once, before any runtime
/// counts, traces or schedules it.
template <typename Deliver>
void route(std::vector<Message>& outbox, NodeId from, int round,
           bool fabricated, const RunOptions& options, const NodeIndex& index,
           std::vector<Message>& copies, Deliver&& deliver) {
  const bool corrupt = !fabricated && index.faulty(from);
  DA_EXPECTS(!corrupt || options.adversary != nullptr);
  const auto land = [&](const Message& copy, double holdback) {
    const std::size_t to = index.at(copy.to);
    if (to == NodeIndex::npos) {
      DA_EXPECTS(fabricated);
      count_dropped_fabrication();
      return;
    }
    deliver(to, copy, holdback);
  };
  for (Message& msg : outbox) {
    DA_EXPECTS(msg.from == from);
    msg.round = round;
    if (!corrupt && options.network == nullptr) {
      land(msg, 0.0);  // reliable-link fast path: delivered as sent
    } else {
      filter_fanout(msg, options, corrupt, copies, land);
    }
  }
}

}  // namespace da::sim
