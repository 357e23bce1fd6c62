#pragma once

#include <memory>
#include <vector>

#include "protocols/common/eig.hpp"
#include "sim/process.hpp"

namespace da::protocols {

/// One node's execution of an EIG-family protocol (BYZ(m,m), OM(m)): the
/// sender broadcasts in round 0; each subsequent round every receiver
/// relays the values it received with its own id appended to the path;
/// after `depth` rounds the receiver folds its tree with the protocol's
/// resolver.
///
/// Receivers validate structure strictly — a message is stored only if its
/// path has the right length for the round, starts at the sender, ends at
/// the actual transmitter, repeats no node, and does not contain the
/// receiver (`EigTree::admit` checks the path in the same walk that finds
/// its slot). Anything malformed is ignored, which a fault-free receiver
/// cannot distinguish from an omission (and an omission reads as V_d).
class EigProcess final : public sim::Process {
 public:
  struct Params {
    NodeId self = kNoNode;
    NodeId sender = kNoNode;
    std::vector<NodeId> nodes;    // all participants, sender included
    int depth = 1;                // communication rounds
    Value input = Value::def();   // the sender's value (senders only)
    std::shared_ptr<const Resolver> resolver;  // shared: facades may hand out processes
  };

  explicit EigProcess(Params params);

  [[nodiscard]] NodeId id() const override { return params_.self; }
  [[nodiscard]] int total_rounds() const override { return params_.depth; }
  void start(std::vector<sim::Message>& out) override;
  void on_round(int round, const std::vector<sim::Message>& inbox,
                std::vector<sim::Message>& out) override;
  [[nodiscard]] Value decide() const override;

  /// Checkpoint/fork support: the flat EigTree arena makes both plain
  /// vector copies (assign_from reuses the target's storage).
  [[nodiscard]] std::unique_ptr<sim::Process> clone() const override;
  void assign_from(const sim::Process& other) override;

  /// The receiver's gathered tree (for diagnostics and tests).
  [[nodiscard]] const EigTree& tree() const { return tree_; }

 private:
  Params params_;
  EigTree tree_;
};

/// Builds the full process vector for one protocol instance over nodes
/// 0..n-1 with the given sender/value/depth/resolver.
[[nodiscard]] std::vector<std::unique_ptr<sim::Process>> make_eig_processes(
    int n, NodeId sender, Value input, int depth,
    std::shared_ptr<const Resolver> resolver);

}  // namespace da::protocols
