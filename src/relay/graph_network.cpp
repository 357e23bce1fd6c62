#include "relay/graph_network.hpp"

#include <algorithm>

#include "graph/connectivity.hpp"
#include "util/contracts.hpp"

namespace da::relay {

namespace {

std::uint64_t pair_key(NodeId s, NodeId t) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)) << 32) |
         static_cast<std::uint32_t>(t);
}

}  // namespace

GraphRelayNetwork::GraphRelayNetwork(graph::Graph g, int m, int u,
                                     std::vector<NodeId> faulty,
                                     HopCorruption corruption)
    : graph_(std::move(g)),
      m_(m),
      u_(u),
      faulty_(std::move(faulty)),
      corruption_(std::move(corruption)) {
  DA_EXPECTS(m_ >= 0 && u_ >= m_);
  std::sort(faulty_.begin(), faulty_.end());
}

const std::vector<std::vector<NodeId>>& GraphRelayNetwork::paths_for(
    NodeId s, NodeId t) {
  const std::uint64_t key = pair_key(s, t);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  auto paths = graph::disjoint_paths(graph_, s, t, m_ + u_ + 1);
  return cache_.emplace(key, std::move(paths)).first->second;
}

int GraphRelayNetwork::paths_between(NodeId s, NodeId t) {
  return static_cast<int>(paths_for(s, t).size());
}

double GraphRelayNetwork::transit(const sim::Message& msg,
                                  std::vector<sim::Message>& out) {
  if (msg.from == msg.to || graph_.has_edge(msg.from, msg.to)) {
    out.push_back(msg);  // self or direct link
    return 0.0;
  }

  const auto& paths = paths_for(msg.from, msg.to);
  if (paths.empty()) return 0.0;  // disconnected pair

  const ChannelResult channel =
      send_along_paths(paths, msg.value, u_, faulty_, corruption_);
  // A defaulted channel is indistinguishable from an omitted message for
  // the EIG protocols (an unset tree slot reads as V_d), but delivering
  // the V_d explicitly keeps the message counts meaningful.
  out.push_back(msg);
  out.back().value = channel.delivered;
  return 0.0;
}

}  // namespace da::relay
