#include "protocols/common/eig.hpp"

#include <gtest/gtest.h>

#include "protocols/common/eig_process.hpp"
#include "sim/runner.hpp"

namespace da::protocols {
namespace {

TEST(EigTree, MissingSlotReadsAsDefault) {
  const EigTree tree(/*self=*/1, /*sender=*/0, {0, 1, 2, 3}, /*depth=*/2);
  EXPECT_EQ(tree.get(Path{0}), Value::def());
  EXPECT_FALSE(tree.has(Path{0}));
}

TEST(EigTree, DoubleSetIsContractViolation) {
  // Receivers dedupe deliveries upstream (set_if_absent in
  // EigProcess::on_round), so a second write to a slot can only be a
  // protocol bug: it must fault loudly instead of silently keeping (or
  // replacing) the first value.
  EigTree tree(1, 0, {0, 1, 2, 3}, 2);
  tree.set(Path{0}, Value::of(5));
  EXPECT_THROW(tree.set(Path{0}, Value::of(9)), std::logic_error);
  EXPECT_THROW(tree.set(Path{0}, Value::of(5)), std::logic_error);  // same v
  EXPECT_EQ(tree.get(Path{0}), Value::of(5));
  EXPECT_EQ(tree.stored(), 1u);
}

TEST(EigTree, SharedLayoutAcrossReceivers) {
  // All receivers of one (n, sender, depth) instance share one arena
  // layout object; a different shape gets a different layout.
  const EigTree a(1, 0, {0, 1, 2, 3}, 2);
  const EigTree b(2, 0, {0, 1, 2, 3}, 2);
  EXPECT_EQ(&a.layout(), &b.layout());
  const EigTree c(1, 0, {0, 1, 2, 3}, 3);
  EXPECT_NE(&a.layout(), &c.layout());
  // Arena size = 1 + (n-1) + (n-1)(n-2) + ... up to depth levels.
  EXPECT_EQ(a.layout().size(), 1u + 3u);
  EXPECT_EQ(c.layout().size(), 1u + 3u + 6u);
}

TEST(EigTree, RejectsForeignRoot) {
  EigTree tree(1, 0, {0, 1, 2, 3}, 2);
  EXPECT_THROW(tree.set(Path{2}, Value::of(1)), std::logic_error);
}

TEST(EigTree, RejectsOverlongPath) {
  EigTree tree(1, 0, {0, 1, 2, 3}, 2);
  EXPECT_THROW(tree.set(Path{0, 2, 3}, Value::of(1)), std::logic_error);
}

TEST(EigTree, RejectsNonParticipantAndRepeatedHops) {
  // Index-addressed storage upgrades malformed paths from silent V_d
  // reads to contract violations (receivers validate upstream anyway).
  EigTree tree(1, 0, {0, 1, 2, 3}, 3);
  EXPECT_THROW(tree.set(Path{0, 9}, Value::of(1)), std::logic_error);
  EXPECT_THROW(tree.set(Path{0, 2, 2}, Value::of(1)), std::logic_error);
  EXPECT_THROW((void)tree.get(Path{0, 9}), std::logic_error);
}

TEST(EigTree, DepthOneResolveIsDirectRead) {
  EigTree tree(1, 0, {0, 1, 2}, 1);
  tree.set(Path{0}, Value::of(8));
  const MajorityResolver rule;
  EXPECT_EQ(tree.resolve(rule), Value::of(8));
}

TEST(EigTree, DepthTwoMajorityResolve) {
  // n=4, viewer 1. Root value 7; echoes: node 2 says 7, node 3 says 9.
  EigTree tree(1, 0, {0, 1, 2, 3}, 2);
  tree.set(Path{0}, Value::of(7));
  tree.set(Path{0, 2}, Value::of(7));
  tree.set(Path{0, 3}, Value::of(9));
  const MajorityResolver rule;
  // W = {7 (own), 7 (via 2), 9 (via 3)} -> majority 7.
  EXPECT_EQ(tree.resolve(rule), Value::of(7));
}

TEST(EigTree, DepthTwoByzResolveDefaultsOnSplit) {
  // BYZ rule with m=1, n_sub=4: VOTE(2,3) at the root.
  EigTree tree(1, 0, {0, 1, 2, 3}, 2);
  tree.set(Path{0}, Value::of(7));
  tree.set(Path{0, 2}, Value::of(8));
  tree.set(Path{0, 3}, Value::of(9));
  const ByzResolver rule(1);
  // W = {7, 8, 9}: nothing reaches 2 -> V_d.
  EXPECT_EQ(tree.resolve(rule), Value::def());
}

TEST(EigTree, OmittedEchoCountsAsDefault) {
  EigTree tree(1, 0, {0, 1, 2, 3}, 2);
  tree.set(Path{0}, Value::of(7));
  tree.set(Path{0, 2}, Value::of(7));
  // Node 3's echo missing -> V_d in W.
  const ByzResolver rule(1);
  // W = {7, 7, V_d}: 7 reaches VOTE(2,3).
  EXPECT_EQ(tree.resolve(rule), Value::of(7));
}

TEST(ByzResolver, ThresholdTracksSubInstanceSize) {
  const ByzResolver rule(1);
  const std::vector<Value> w{Value::of(3), Value::of(3), Value::of(4)};
  // n_sub=4 -> alpha = 2: 3 wins.
  EXPECT_EQ(rule.resolve(4, w), Value::of(3));
}

TEST(ByzResolver, AlphaBelowOneRejected) {
  const ByzResolver rule(3);
  const std::vector<Value> w{Value::of(1), Value::of(1), Value::of(1)};
  // n_sub=4 -> alpha = 0: malformed configuration.
  EXPECT_THROW((void)rule.resolve(4, w), std::logic_error);
}

TEST(EigProcess, SenderBroadcastsItsValue) {
  const auto resolver = std::make_shared<ByzResolver>(1);
  EigProcess sender(EigProcess::Params{.self = 0,
                                       .sender = 0,
                                       .nodes = {0, 1, 2, 3},
                                       .depth = 2,
                                       .input = Value::of(6),
                                       .resolver = resolver});
  std::vector<sim::Message> out;
  sender.start(out);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& msg : out) {
    EXPECT_EQ(msg.from, 0);
    EXPECT_EQ(msg.path, Path{0});
    EXPECT_EQ(msg.value, Value::of(6));
  }
  EXPECT_EQ(sender.decide(), Value::of(6));
}

TEST(EigProcess, ReceiverRelaysWithAppendedPath) {
  const auto resolver = std::make_shared<ByzResolver>(1);
  EigProcess receiver(EigProcess::Params{.self = 2,
                                         .sender = 0,
                                         .nodes = {0, 1, 2, 3},
                                         .depth = 2,
                                         .resolver = resolver});
  std::vector<sim::Message> relays;
  receiver.start(relays);
  EXPECT_TRUE(relays.empty());
  const sim::Message direct{
      .from = 0, .to = 2, .round = 0, .path = Path{0}, .value = Value::of(6)};
  receiver.on_round(0, {direct}, relays);
  ASSERT_EQ(relays.size(), 2u);  // to nodes 1 and 3
  for (const auto& msg : relays) {
    EXPECT_EQ(msg.path, (Path{0, 2}));
    EXPECT_EQ(msg.value, Value::of(6));
    EXPECT_NE(msg.to, 0);
    EXPECT_NE(msg.to, 2);
  }
}

TEST(EigProcess, MalformedMessagesIgnored) {
  const auto resolver = std::make_shared<ByzResolver>(1);
  EigProcess receiver(EigProcess::Params{.self = 2,
                                         .sender = 0,
                                         .nodes = {0, 1, 2, 3},
                                         .depth = 2,
                                         .resolver = resolver});
  // Wrong path length for round 0.
  const sim::Message bad_len{.from = 1,
                             .to = 2,
                             .round = 0,
                             .path = Path{0, 1},
                             .value = Value::of(1)};
  // Path not ending at transmitter.
  const sim::Message bad_tail{
      .from = 1, .to = 2, .round = 0, .path = Path{0}, .value = Value::of(2)};
  // Path containing the receiver.
  const sim::Message self_path{.from = 1,
                               .to = 2,
                               .round = 1,
                               .path = Path{0, 2},
                               .value = Value::of(3)};
  // Unknown participant in path.
  const sim::Message foreign{.from = 9,
                             .to = 2,
                             .round = 1,
                             .path = Path{0, 9},
                             .value = Value::of(4)};
  std::vector<sim::Message> out;
  receiver.on_round(0, {bad_len, bad_tail}, out);
  EXPECT_TRUE(out.empty());
  receiver.on_round(1, {self_path, foreign}, out);
  EXPECT_EQ(receiver.tree().stored(), 0u);
}

TEST(EigProcess, FullRunNoFaults) {
  auto procs =
      make_eig_processes(5, 0, Value::of(11), 3, std::make_shared<ByzResolver>(2));
  sim::SyncRunner runner(std::move(procs), sim::RunOptions{});
  const auto result = runner.run();
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(result.decisions.at(i), Value::of(11)) << "node " << i;
  }
  // Message count: 4 + 4*3 + 4*3*2 = 40.
  EXPECT_EQ(result.messages_sent, 40u);
}

TEST(EigProcess, SenderMustHaveNonDefaultInput) {
  const auto resolver = std::make_shared<ByzResolver>(1);
  EXPECT_THROW(EigProcess(EigProcess::Params{.self = 0,
                                             .sender = 0,
                                             .nodes = {0, 1, 2},
                                             .depth = 2,
                                             .input = Value::def(),
                                             .resolver = resolver}),
               std::logic_error);
}

}  // namespace
}  // namespace da::protocols
