#include "relay/graph_network.hpp"

#include <gtest/gtest.h>

#include "core/agreement.hpp"
#include "faults/adversaries.hpp"
#include "graph/connectivity.hpp"
#include "graph/topology.hpp"
#include "util/rng.hpp"

namespace da::relay {
namespace {

const HopCorruption kForge = [](NodeId, Value v) {
  return Value::of(v.raw() + 9999);
};

/// The copies `network` delivers for one send (at most one here).
std::vector<sim::Message> transit(GraphRelayNetwork& network,
                                  const sim::Message& msg) {
  std::vector<sim::Message> out;
  EXPECT_EQ(network.transit(msg, out), 0.0);  // relays never hold back
  EXPECT_LE(out.size(), 1u);
  return out;
}

ConditionReport run_over(const graph::Graph& g, const Config& config,
                         const std::vector<NodeId>& faulty,
                         sim::Adversary* adversary) {
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(42);
  spec.faulty = faulty;

  GraphRelayNetwork network(g, config.m, config.u, faulty, kForge);
  RunExtras extras;
  extras.network = &network;
  const sim::RunResult outcome = protocol.run(spec, adversary, extras);
  return check_conditions(spec, outcome.decisions);
}

TEST(GraphRelay, DirectLinksPassThrough) {
  GraphRelayNetwork network(graph::complete(5), 1, 2, {}, kForge);
  const sim::Message msg{
      .from = 0, .to = 3, .round = 0, .value = Value::of(7)};
  const auto out = transit(network, msg);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, Value::of(7));
}

TEST(GraphRelay, NonAdjacentCleanChannelPreservesValue) {
  GraphRelayNetwork network(graph::circulant(9, 2), 1, 2, {}, kForge);
  const sim::Message msg{
      .from = 0, .to = 4, .round = 0, .value = Value::of(7)};
  const auto out = transit(network, msg);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, Value::of(7));
  EXPECT_EQ(network.paths_between(0, 4), 4);  // m+u+1
}

TEST(GraphRelay, FaultyInteriorDegradesToDefaultNotWrong) {
  // Two faulty interiors (u = 2): the channel may default but never lies.
  const auto g = graph::circulant(9, 2);
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<NodeId> faulty;
    for (const int x : rng.subset(7, 2)) faulty.push_back(x + 1);
    if (std::find(faulty.begin(), faulty.end(), 4) != faulty.end()) continue;
    GraphRelayNetwork network(g, 1, 2, faulty, kForge);
    const sim::Message msg{
        .from = 0, .to = 4, .round = 0, .value = Value::of(7)};
    const auto out = transit(network, msg);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].value == Value::of(7) || out[0].value.is_default());
  }
}

TEST(GraphRelay, ByzOverSufficientConnectivityKeepsConditions) {
  // End-to-end: BYZ(1,1) for the 1/2-degradable config on a 4-connected
  // 9-node graph (connectivity = m+u+1 = 4). Faulty nodes equivocate at
  // protocol level AND corrupt relayed copies in transit.
  const auto g = graph::circulant(9, 2);
  ASSERT_EQ(graph::vertex_connectivity(g), 4);
  const Config config{.n = 9, .m = 1, .u = 2};

  for (int f = 0; f <= config.u; ++f) {
    Rng rng(static_cast<std::uint64_t>(f) + 11);
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<NodeId> faulty;
      for (const int x : rng.subset(config.n, f)) faulty.push_back(x);
      auto adversary = faults::equivocator(Value::of(42), Value::of(13));
      const ConditionReport report =
          run_over(g, config, faulty, f == 0 ? nullptr : adversary.get());
      EXPECT_TRUE(report.satisfied)
          << "f=" << f << " trial=" << trial << ": " << report.detail;
    }
  }
}

TEST(GraphRelay, ByzOverInsufficientConnectivityBreaks) {
  // Separator graph with a cut of exactly m+u = 3: one faulty cut node
  // (f = 1 <= m!) already breaks D.1 across the cut — Theorem 3's
  // necessity, observed end-to-end.
  const auto g = graph::separator_graph(3, 3, 3);  // nodes 3,4,5 = the cut
  ASSERT_EQ(graph::vertex_connectivity(g), 3);
  const Config config{.n = 9, .m = 1, .u = 2};

  auto adversary = faults::constant_liar(Value::of(13));
  const ConditionReport report = run_over(g, config, {4}, adversary.get());
  EXPECT_FALSE(report.satisfied);
}

TEST(GraphRelay, CompleteGraphIsIdenticalToPlainRun) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 2;
  spec.sender_value = Value::of(5);
  spec.faulty = {0, 4};

  auto a1 = faults::equivocator(Value::of(5), Value::of(6));
  const sim::RunResult plain = protocol.run(spec, a1.get());

  GraphRelayNetwork network(graph::complete(7), config.m, config.u,
                            spec.faulty, kForge);
  auto a2 = faults::equivocator(Value::of(5), Value::of(6));
  RunExtras extras;
  extras.network = &network;
  const sim::RunResult relayed = protocol.run(spec, a2.get(), extras);
  EXPECT_EQ(plain.decisions, relayed.decisions);
}

TEST(GraphRelay, DisconnectedPairIsDropped) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  GraphRelayNetwork network(g, 0, 0, {}, kForge);
  const sim::Message msg{
      .from = 0, .to = 3, .round = 0, .value = Value::of(7)};
  EXPECT_TRUE(transit(network, msg).empty());
}

}  // namespace
}  // namespace da::relay
