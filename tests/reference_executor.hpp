#pragma once

// A deliberately naive synchronous-round executor, kept only as the
// independent partner of the cross-runtime differential. `SyncRunner` and
// the threaded runtime share `sim::RoundEngine` and its `sim::route`, so
// comparing them with each other cannot catch a bug in that shared core;
// comparing both with this executor can.
//
// It is written from the round semantics alone and shares none of the
// core's machinery: no `NodeIndex`, `route`/`filter_fanout` or
// `sort_inbox`, no buffer reuse and no snapshots. Participants live in a
// map keyed by id, each round's inboxes are ordered maps, and the
// adversary/network step (corrupt, restore from/to/round, fan out, drop
// fabrications aimed outside the instance) is spelled out below.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/trace.hpp"

namespace da::reference {

struct Result {
  std::map<NodeId, Value> decisions;
  std::size_t messages_sent = 0;
  std::size_t messages_delivered = 0;
};

/// Runs `processes` for their `total_rounds()` rounds. `adversary`
/// controls the `faulty` nodes; `network` (may be null: reliable links)
/// carries every send; `trace` (may be null) records every delivery.
inline Result run(std::vector<std::unique_ptr<sim::Process>> processes,
                  const std::vector<NodeId>& faulty,
                  sim::Adversary* adversary, sim::NetworkModel* network,
                  sim::Trace* trace) {
  std::map<NodeId, sim::Process*> by_id;
  for (const auto& p : processes) by_id[p->id()] = p.get();
  const auto faulty_node = [&](NodeId id) {
    return std::find(faulty.begin(), faulty.end(), id) != faulty.end();
  };

  // A receiver's round inbox, in delivery order: sender, then relay path,
  // then content (a fabricator may send one slot twice).
  using Key = std::tuple<NodeId, Path, Value, std::int64_t>;
  using Inbox = std::multimap<Key, sim::Message>;

  Result result;
  const int rounds = processes.front()->total_rounds();
  std::map<NodeId, std::vector<sim::Message>> outgoing;
  for (const auto& p : processes) p->start(outgoing[p->id()]);

  for (int round = 0; round < rounds; ++round) {
    std::map<NodeId, Inbox> inboxes;
    const auto transmit = [&](const sim::Message& msg) {
      std::vector<sim::Message> copies;
      if (network == nullptr) {
        copies.push_back(msg);
      } else {
        network->transit(msg, copies);  // holdback: event runtime only
      }
      for (const sim::Message& copy : copies) {
        if (!by_id.contains(copy.to)) continue;  // fabricated, unknown node
        ++result.messages_delivered;
        if (trace != nullptr) trace->record(copy);
        inboxes[copy.to].emplace(
            Key{copy.from, copy.path, copy.value, copy.aux}, copy);
      }
    };
    // Senders in process order, each one's own sends before its
    // fabrications: the trace records deliveries in the same order as
    // the engine does.
    for (const auto& p : processes) {
      const NodeId from = p->id();
      for (sim::Message msg : outgoing[from]) {
        ++result.messages_sent;
        msg.round = round;
        if (!faulty_node(from)) {
          transmit(msg);
          continue;
        }
        std::optional<sim::Message> lie = adversary->corrupt(msg);
        if (!lie.has_value()) continue;
        lie->from = msg.from;
        lie->to = msg.to;
        lie->round = msg.round;
        transmit(*lie);
      }
      if (!faulty_node(from)) continue;
      for (sim::Message msg : adversary->fabricate(from, round)) {
        ++result.messages_sent;
        msg.round = round;
        transmit(msg);
      }
    }

    outgoing.clear();
    for (const auto& [id, proc] : by_id) {
      std::vector<sim::Message> inbox;
      for (const auto& [key, msg] : inboxes[id]) inbox.push_back(msg);
      std::vector<sim::Message> replies;
      proc->on_round(round, inbox, replies);
      // Sends after the last round have nowhere to go.
      if (round + 1 < rounds) outgoing[id] = std::move(replies);
    }
  }

  for (const auto& [id, proc] : by_id) result.decisions[id] = proc->decide();
  return result;
}

}  // namespace da::reference
