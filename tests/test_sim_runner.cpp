#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "faults/adversaries.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"

namespace da::sim {
namespace {

/// Minimal two-round protocol for runner mechanics: node 0 broadcasts its
/// value in round 0; in round 1 every node echoes what it got back to 0;
/// everyone decides the first value it saw.
class PingPong final : public Process {
 public:
  PingPong(NodeId self, int n, Value input)
      : self_(self), n_(n), input_(input) {}

  NodeId id() const override { return self_; }
  int total_rounds() const override { return 2; }

  void start(std::vector<Message>& out) override {
    if (self_ != 0) return;
    for (NodeId to = 1; to < n_; ++to) {
      out.push_back(Message{.from = 0, .to = to, .round = 0, .value = input_});
    }
  }

  void on_round(int round, const std::vector<Message>& inbox,
                std::vector<Message>& out) override {
    if (!inbox.empty() && heard_.is_default()) heard_ = inbox.front().value;
    if (round == 0 && self_ != 0 && !inbox.empty()) {
      out.push_back(Message{
          .from = self_, .to = 0, .round = 1, .value = inbox.front().value});
    }
  }

  Value decide() const override { return self_ == 0 ? input_ : heard_; }

  int echoes_seen = 0;

 private:
  NodeId self_;
  int n_;
  Value input_;
  Value heard_{};
};

std::vector<std::unique_ptr<Process>> make_pingpong(int n, Value v) {
  std::vector<std::unique_ptr<Process>> procs;
  for (NodeId i = 0; i < n; ++i) {
    procs.push_back(std::make_unique<PingPong>(i, n, v));
  }
  return procs;
}

TEST(SyncRunner, DeliversAndDecides) {
  SyncRunner runner(make_pingpong(4, Value::of(9)), RunOptions{});
  const RunResult result = runner.run();
  EXPECT_EQ(result.rounds, 2);
  // 3 broadcasts + 3 echoes.
  EXPECT_EQ(result.messages_sent, 6u);
  EXPECT_EQ(result.messages_delivered, 6u);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(result.decisions.at(i), Value::of(9));
  }
}

TEST(SyncRunner, AdversaryCorruptsFaultySender) {
  RunOptions options;
  options.faulty = {0};
  auto adversary = faults::constant_liar(Value::of(66));
  options.adversary = adversary.get();
  SyncRunner runner(make_pingpong(3, Value::of(9)), options);
  const RunResult result = runner.run();
  EXPECT_EQ(result.decisions.at(1), Value::of(66));
  EXPECT_EQ(result.decisions.at(2), Value::of(66));
}

TEST(SyncRunner, SilentFaultyNodeMeansNoDelivery) {
  RunOptions options;
  options.faulty = {0};
  auto adversary = faults::silent();
  options.adversary = adversary.get();
  SyncRunner runner(make_pingpong(3, Value::of(9)), options);
  const RunResult result = runner.run();
  EXPECT_EQ(result.messages_delivered, 0u);
  EXPECT_EQ(result.decisions.at(1), Value::def());
}

TEST(SyncRunner, AdversaryCannotImpersonate) {
  // An adversary that rewrites from/to/round gets normalized back.
  class Impersonator final : public Adversary {
   public:
    std::optional<Message> corrupt(const Message& msg) override {
      Message out = msg;
      out.from = 99;
      out.round = 7;
      return out;
    }
  };
  RunOptions options;
  options.faulty = {0};
  Impersonator adversary;
  options.adversary = &adversary;
  options.trace = nullptr;
  Trace trace;
  options.trace = &trace;
  SyncRunner runner(make_pingpong(3, Value::of(4)), options);
  (void)runner.run();
  for (const Message& m : trace.received(1)) {
    EXPECT_EQ(m.from, 0);
    EXPECT_EQ(m.round, 0);
  }
}

/// Behaves honestly except for fabricating, each round, one message aimed
/// at a node that is not part of the instance.
class ForeignTargetFabricator final : public Adversary {
 public:
  explicit ForeignTargetFabricator(NodeId target) : target_(target) {}
  std::optional<Message> corrupt(const Message& original) override {
    return original;
  }
  std::vector<Message> fabricate(NodeId node, int round) override {
    return {Message{
        .from = node, .to = target_, .round = round, .value = Value::of(99)}};
  }

 private:
  NodeId target_;
};

TEST(SyncRunner, FabricationToUnknownNodeIsDroppedAndCounted) {
  // Regression: fabricating at node n+3 used to grow the runner's
  // node-keyed map with a phantom inbox; with indexed buffers the message
  // must be dropped (and counted) instead of writing out of bounds.
  const int n = 4;
  RunOptions options;
  options.faulty = {1};
  ForeignTargetFabricator adversary(/*target=*/n + 3);
  options.adversary = &adversary;
  Trace trace;
  options.trace = &trace;
#ifndef DA_METRICS_DISABLED
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t before =
      registry.counter_value("sim.fabrications_dropped");
#endif
  SyncRunner runner(make_pingpong(n, Value::of(9)), options);
  const RunResult result = runner.run();
  // Honest traffic (3 broadcasts + 3 echoes) is unaffected; the two
  // fabrications (rounds 0 and 1) count as sent but never as delivered,
  // and never reach the trace.
  EXPECT_EQ(result.messages_sent, 8u);
  EXPECT_EQ(result.messages_delivered, 6u);
  EXPECT_EQ(trace.total_messages(), 6u);
  for (NodeId i = 0; i < n; ++i) {
    EXPECT_EQ(result.decisions.at(i), Value::of(9));
  }
#ifndef DA_METRICS_DISABLED
  EXPECT_EQ(registry.counter_value("sim.fabrications_dropped"), before + 2);
#endif
}

TEST(SyncRunner, TopologyNetworkBlocksNonNeighbors) {
  graph::Graph g(3);
  g.add_edge(0, 1);  // 0-2 missing
  TopologyNetwork network(g);
  RunOptions options;
  options.network = &network;
  SyncRunner runner(make_pingpong(3, Value::of(5)), options);
  const RunResult result = runner.run();
  EXPECT_EQ(result.decisions.at(1), Value::of(5));
  EXPECT_EQ(result.decisions.at(2), Value::def());
}

TEST(SyncRunner, TraceRecordsDeliveredMessages) {
  Trace trace;
  RunOptions options;
  options.trace = &trace;
  SyncRunner runner(make_pingpong(4, Value::of(2)), options);
  const RunResult result = runner.run();
  EXPECT_EQ(trace.total_messages(), result.messages_delivered);
  EXPECT_EQ(trace.received(0).size(), 3u);  // the echoes
  EXPECT_EQ(trace.received(1).size(), 1u);
}

TEST(SyncRunner, MismatchedRoundCountsRejected) {
  auto procs = make_pingpong(3, Value::of(1));
  class OneRound final : public Process {
   public:
    NodeId id() const override { return 2; }
    int total_rounds() const override { return 1; }
    void start(std::vector<Message>&) override {}
    void on_round(int, const std::vector<Message>&,
                  std::vector<Message>&) override {}
    Value decide() const override { return Value::def(); }
  };
  procs[2] = std::make_unique<OneRound>();
  SyncRunner runner(std::move(procs), RunOptions{});
  EXPECT_THROW((void)runner.run(), std::logic_error);
}

TEST(SyncRunner, FaultyIdMustBeKnown) {
  RunOptions options;
  options.faulty = {9};
  auto adversary = faults::silent();
  options.adversary = adversary.get();
  EXPECT_THROW(SyncRunner(make_pingpong(3, Value::of(1)), options),
               std::logic_error);
}

TEST(SyncRunner, FaultyWithoutAdversaryRejected) {
  RunOptions options;
  options.faulty = {0};
  EXPECT_THROW(SyncRunner(make_pingpong(3, Value::of(1)), options),
               std::logic_error);
}

TEST(FalseTimeoutNetwork, InactiveDeliversEverything) {
  FalseTimeoutNetwork network(0.9, 1);
  Message msg{.from = 0, .to = 1, .round = 0};
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(network.deliver(msg));
}

TEST(FalseTimeoutNetwork, ActiveDropsDeterministically) {
  FalseTimeoutNetwork a(0.5, 77);
  FalseTimeoutNetwork b(0.5, 77);
  a.set_active(true);
  b.set_active(true);
  int drops = 0;
  for (int to = 0; to < 200; ++to) {
    Message msg{.from = 0, .to = to, .round = 1};
    const bool da_ = a.deliver(msg);
    EXPECT_EQ(da_, b.deliver(msg));  // pure function of identity
    drops += da_ ? 0 : 1;
  }
  EXPECT_GT(drops, 50);
  EXPECT_LT(drops, 150);
}

TEST(Trace, IndistinguishabilityByTranscript) {
  Trace t1;
  Trace t2;
  const Message m{.from = 0, .to = 1, .round = 0, .value = Value::of(3)};
  t1.record(m);
  t2.record(m);
  EXPECT_TRUE(t1.indistinguishable_for(1, t2));
  Message other = m;
  other.value = Value::of(4);
  t2.record(other);
  EXPECT_FALSE(t1.indistinguishable_for(1, t2));
  EXPECT_TRUE(t1.indistinguishable_for(2, t2));  // no messages either way
}

}  // namespace
}  // namespace da::sim
