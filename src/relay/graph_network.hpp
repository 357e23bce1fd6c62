#pragma once

#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "relay/disjoint_relay.hpp"
#include "sim/network.hpp"

namespace da::relay {

/// A network model that runs an agreement protocol end-to-end over a
/// *sparse* graph: adjacent nodes exchange messages directly; messages
/// between non-adjacent nodes travel as copies along up to m+u+1
/// internally vertex-disjoint paths, where faulty interior nodes corrupt
/// their copy, and the receiving endpoint takes VOTE(u+1, k) over the
/// arriving copies (the degradable channel of Theorem 3's sufficiency
/// remark).
///
/// With vertex connectivity >= m+u+1, every virtual link is a degradable
/// channel — true value through m interior faults, true-or-V_d through u —
/// and BYZ(m,m) on top retains its D.1-D.4 guarantees (a V_d'd copy is
/// indistinguishable from an omission, which the protocol already
/// absorbs). With connectivity m+u or less some pair has too few paths,
/// the channel cannot simultaneously satisfy its D.1 and D.3 shapes
/// (Theorem 3's necessity), and agreement observably breaks.
///
/// Faulty *interior* corruption is driven by `corruption`; faulty
/// *endpoint* behaviour is the ordinary protocol-level adversary, which
/// the runner applies before transit.
class GraphRelayNetwork final : public sim::NetworkModel {
 public:
  GraphRelayNetwork(graph::Graph g, int m, int u,
                    std::vector<NodeId> faulty, HopCorruption corruption);

  /// Appends `msg` as is over a direct link, or with the value the
  /// disjoint-path vote delivers otherwise; nothing for a disconnected pair.
  double transit(const sim::Message& msg,
                 std::vector<sim::Message>& out) override;

  /// Number of disjoint paths available between a pair (cached).
  [[nodiscard]] int paths_between(NodeId s, NodeId t);

 private:
  [[nodiscard]] const std::vector<std::vector<NodeId>>& paths_for(NodeId s,
                                                                  NodeId t);

  graph::Graph graph_;
  int m_;
  int u_;
  std::vector<NodeId> faulty_;
  HopCorruption corruption_;
  std::unordered_map<std::uint64_t, std::vector<std::vector<NodeId>>> cache_;
};

}  // namespace da::relay
