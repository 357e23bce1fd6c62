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

namespace da::obs {
class SpanSink;
}  // namespace da::obs

namespace da::sim {

/// Everything a runner needs besides the processes themselves.
struct RunOptions {
  /// Ids of Byzantine nodes. Must be process ids.
  std::vector<NodeId> faulty{};
  /// Controls all faulty nodes. May be null iff `faulty` is empty.
  Adversary* adversary = nullptr;
  /// Link model; null means reliable delivery.
  NetworkModel* network = nullptr;
  /// Optional transcript capture (delivered messages per receiver).
  Trace* trace = nullptr;
  /// Optional per-round phase tallies (send/deliver/resolve spans, see
  /// obs/spans.hpp). The runtimes call it from one thread only (dispatch
  /// and round close are serial), so one sink observes one execution at a
  /// time.
  obs::SpanSink* spans = nullptr;
};

/// Outcome of one protocol execution.
struct RunResult {
  /// Every node's decision (including the sender's, which for fault-free
  /// senders is its own value by construction of the protocols). A flat
  /// sorted vector under a map-like surface — see sim/decisions.hpp.
  Decisions decisions;
  std::size_t messages_sent = 0;
  std::size_t messages_delivered = 0;
  int rounds = 0;
};

/// Deterministic, single-threaded synchronous-round executor. Rounds are
/// global: all messages produced in round r are delivered together at the
/// start of processing for round r, in a canonical order (sender id, then
/// relay path), so executions are exactly reproducible. The loop itself
/// lives in `RoundEngine` (sim/round_engine.hpp), which additionally
/// supports checkpoint/fork replay; `run()` is the one-shot form.
class SyncRunner {
 public:
  SyncRunner(std::vector<std::unique_ptr<Process>> processes,
             RunOptions options);

  [[nodiscard]] RunResult run();

 private:
  std::vector<std::unique_ptr<Process>> processes_;
  RunOptions options_;
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
/// skip `corrupt`. Then the network model's `transit_fanout` yields zero
/// (drop), one or several (duplicate) copies; reliable links (null
/// network) pass the message on without a per-message vector. Each copy
/// goes to `sink`.
template <typename Sink>
void filter_fanout(const Message& msg, const RunOptions& options,
                   bool corrupt, Sink&& sink) {
  const auto transit = [&](const Message& out) {
    if (options.network == nullptr) {
      sink(out);
      return;
    }
    for (const Message& copy : options.network->transit_fanout(out)) {
      sink(copy);
    }
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

/// The one message-dispatch rule, shared by `RoundEngine` (so also
/// `SyncRunner` and the threaded runtime) and `event::EventRunner`. Stamps
/// every message of `from`'s round-`round` outbox with the round, passes
/// it through `filter_fanout`, and hands each resulting copy to
/// `deliver(receiver_index, copy)`. Honest senders and the normalized
/// `corrupt` can only address participants, but `fabricate` may aim
/// anywhere: a copy for a node outside `index` is dropped here and counted
/// once, before any runtime counts, traces or schedules it.
template <typename Deliver>
void route(std::vector<Message>& outbox, NodeId from, int round,
           bool fabricated, const RunOptions& options, const NodeIndex& index,
           Deliver&& deliver) {
  const bool corrupt = !fabricated && index.faulty(from);
  DA_EXPECTS(!corrupt || options.adversary != nullptr);
  const auto land = [&](const Message& copy) {
    const std::size_t to = index.at(copy.to);
    if (to == NodeIndex::npos) {
      DA_EXPECTS(fabricated);
      count_dropped_fabrication();
      return;
    }
    deliver(to, copy);
  };
  for (Message& msg : outbox) {
    DA_EXPECTS(msg.from == from);
    msg.round = round;
    if (!corrupt && options.network == nullptr) {
      land(msg);  // reliable-link fast path: delivered as sent
    } else {
      filter_fanout(msg, options, corrupt, land);
    }
  }
}

}  // namespace da::sim
