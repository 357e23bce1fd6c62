#include "protocols/common/eig.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

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

TEST(EigTree, RejectsIdsBeyondAPathHop) {
  EXPECT_NO_THROW(EigTree(0, 0, {0, 127}, 1));
  EXPECT_THROW(EigTree(0, 0, {0, 128}, 1), std::logic_error);
  EXPECT_THROW(EigTree(0, 0, {0, 1, 300}, 2), std::logic_error);
}

/// The receive walk as it was before `admit`: the path checks of the old
/// `EigProcess::valid_message` (its length check is `admit`'s depth bound
/// here; the message-level checks stay in `on_round`), then the old
/// `EigTree::ordinal_of`. Returns the ordinal, or EigTree::kNoSlot.
std::uint32_t reference_admit(const EigTree& tree, NodeId self,
                              NodeId sender, const Path& path) {
  if (path.empty() || static_cast<int>(path.size()) > tree.depth()) {
    return EigTree::kNoSlot;
  }
  if (path.front() != sender) return EigTree::kNoSlot;
  if (!path.distinct()) return EigTree::kNoSlot;
  if (path.contains(self)) return EigTree::kNoSlot;
  for (NodeId hop : path) {
    if (!tree.is_participant(hop)) return EigTree::kNoSlot;
  }
  const EigLayout& layout = tree.layout();
  const std::vector<NodeId>& nodes = tree.nodes();
  std::uint64_t mask = 1ULL << layout.sender_rank();
  std::uint32_t ord = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const int rank = static_cast<int>(
        std::lower_bound(nodes.begin(), nodes.end(), path[i]) -
        nodes.begin());
    const std::uint64_t bit = 1ULL << rank;
    const int child = rank - std::popcount(mask & (bit - 1));
    ord = layout.child_begin(ord, static_cast<int>(i) - 1) +
          static_cast<std::uint32_t>(child);
    mask |= bit;
  }
  return ord;
}

TEST(EigTree, AdmitMatchesValidMessagePlusOrdinalOf) {
  // Every path of length 0..depth+1 over the ids one below the smallest
  // participant to one above the largest, so duplicate hops, hops through
  // the receiver, foreign roots and non-participants all occur.
  std::vector<std::vector<NodeId>> node_sets;
  for (int n = 2; n <= 5; ++n) {
    std::vector<NodeId> nodes(static_cast<std::size_t>(n));
    std::iota(nodes.begin(), nodes.end(), 0);
    node_sets.push_back(nodes);
  }
  node_sets.push_back({0, 2, 3, 5});
  node_sets.push_back({1, 3, 4});
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  for (const std::vector<NodeId>& nodes : node_sets) {
    const int n = static_cast<int>(nodes.size());
    const NodeId lo = nodes.front() - 1;
    const NodeId hi = nodes.back() + 1;
    for (int depth = 1; depth <= std::min(n, 3); ++depth) {
      for (const NodeId sender : nodes) {
        for (const NodeId self : nodes) {
          const EigTree tree(self, sender, nodes, depth);
          Path path;
          const std::function<void()> visit = [&] {
            if (::testing::Test::HasFailure()) return;  // report one path
            std::uint64_t mask = 0;
            const std::uint32_t got = tree.admit(path, mask);
            const std::uint32_t want =
                reference_admit(tree, self, sender, path);
            ASSERT_EQ(got, want) << path.to_string() << " self " << self
                                 << " sender " << sender << " depth "
                                 << depth;
            if (got == EigTree::kNoSlot) {
              ++rejected;
            } else {
              ++admitted;
              EXPECT_EQ(mask, tree.layout().hop_mask(got));
            }
            if (static_cast<int>(path.size()) > depth) return;
            for (NodeId id = lo; id <= hi; ++id) {
              path.push_back(id);
              visit();
              path.pop_back();
            }
          };
          visit();
        }
      }
    }
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, admitted);
}

TEST(EigProcess, RelayFanOutSkipsEveryNodeOnThePath) {
  const auto resolver = std::make_shared<ByzResolver>(2);
  EigProcess receiver(EigProcess::Params{.self = 2,
                                         .sender = 0,
                                         .nodes = {0, 1, 2, 3, 4, 5},
                                         .depth = 3,
                                         .resolver = resolver});
  const sim::Message msg{.from = 4,
                         .to = 2,
                         .round = 1,
                         .path = Path{0, 4},
                         .value = Value::of(6)};
  std::vector<sim::Message> out;
  receiver.on_round(1, {msg}, out);
  std::vector<NodeId> to;
  for (const sim::Message& relay : out) {
    EXPECT_EQ(relay.path, (Path{0, 4, 2}));
    EXPECT_EQ(relay.round, 2);
    to.push_back(relay.to);
  }
  EXPECT_EQ(to, (std::vector<NodeId>{1, 3, 5}));  // ascending ids
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
  // Unknown participant in path.
  const sim::Message foreign{.from = 9,
                             .to = 2,
                             .round = 1,
                             .path = Path{0, 9},
                             .value = Value::of(4)};
  std::vector<sim::Message> out;
  receiver.on_round(0, {bad_len, bad_tail}, out);
  EXPECT_TRUE(out.empty());
  receiver.on_round(1, {foreign}, out);
  EXPECT_EQ(receiver.tree().stored(), 0u);

  // Path through the receiver: at depth 3, [0,2,1] from 1 in round 2 has
  // the round's length and ends at its transmitter, so only admit's
  // self-hop check can reject it.
  EigProcess deep(EigProcess::Params{.self = 2,
                                     .sender = 0,
                                     .nodes = {0, 1, 2, 3},
                                     .depth = 3,
                                     .resolver = resolver});
  const sim::Message self_path{.from = 1,
                               .to = 2,
                               .round = 2,
                               .path = Path{0, 2, 1},
                               .value = Value::of(3)};
  deep.on_round(2, {self_path}, out);
  EXPECT_EQ(deep.tree().stored(), 0u);
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
