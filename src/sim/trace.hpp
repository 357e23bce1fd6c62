#pragma once

#include <string>
#include <vector>

#include "sim/message.hpp"
#include "util/ids.hpp"

namespace da::sim {

/// Records every delivered message, in delivery order. The Figure 2 /
/// Theorem 2 demonstration uses traces to show *indistinguishability*: a
/// fault-free node receives the same messages in two different fault
/// scenarios, so its decision must be identical too.
///
/// Every reader sees the messages in one canonical order — (to, round,
/// from, path, value with V_d last, aux) — which is total over a
/// message's fields, so the order never depends on how a runtime
/// interleaved its deliveries. The JSONL export (obs/trace_export.hpp)
/// writes it.
class Trace {
 public:
  void record(const Message& msg) { delivered_.push_back(msg); }

  /// Every recorded message, in canonical order (grouped by receiver).
  [[nodiscard]] std::vector<Message> canonical() const;

  /// The messages `node` received, in canonical order.
  [[nodiscard]] std::vector<Message> received(NodeId node) const;

  /// `received(node)` rendered one message per line (`da_cli --trace`).
  [[nodiscard]] std::string transcript(NodeId node) const;

  /// True if `node` received the same messages in `*this` and `other`.
  [[nodiscard]] bool indistinguishable_for(NodeId node,
                                           const Trace& other) const;

  [[nodiscard]] std::size_t total_messages() const {
    return delivered_.size();
  }

  /// Nodes that received at least one message, ascending.
  [[nodiscard]] std::vector<NodeId> nodes() const;

 private:
  std::vector<Message> delivered_;
};

}  // namespace da::sim
