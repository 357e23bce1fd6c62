#include "protocols/crusader/crusader.hpp"

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "faults/adversaries.hpp"
#include "faults/search.hpp"
#include "sim/round_engine.hpp"
#include "sim/runner.hpp"

namespace da::protocols::crusader {
namespace {

sim::RunResult run_crusader(int n, int m, NodeId sender, Value v,
                            const std::vector<NodeId>& faulty,
                            sim::Adversary* adversary) {
  sim::RunOptions options;
  options.faulty = faulty;
  options.adversary = adversary;
  sim::RoundEngine runner(make_crusader_processes(n, m, sender, v), options);
  return runner.run();
}

TEST(Crusader, TwoRoundsOnly) {
  EXPECT_EQ(crusader_rounds(), 2);
  const auto result = run_crusader(5, 1, 0, Value::of(4), {}, nullptr);
  EXPECT_EQ(result.rounds, 2);
}

TEST(Crusader, NoFaultsAllAdopt) {
  const auto result = run_crusader(5, 1, 0, Value::of(4), {}, nullptr);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(result.decisions.at(i), Value::of(4));
  }
}

TEST(Crusader, FaultFreeSenderSurvivesOneLiar) {
  auto adversary = faults::constant_liar(Value::of(9));
  const auto result = run_crusader(5, 1, 0, Value::of(4), {2},
                                   adversary.get());
  for (NodeId i : {1, 3, 4}) {
    EXPECT_EQ(result.decisions.at(i), Value::of(4)) << "node " << i;
  }
}

TEST(Crusader, FaultySenderSplitsIntoValueOrDetect) {
  // Equivocating sender: every fault-free receiver must decide some common
  // value or V_d ("sender is faulty") — never two different values.
  auto adversary = faults::pivot_equivocator(Value::of(1), Value::of(2), 3);
  const auto result = run_crusader(5, 1, 0, Value::of(1), {0},
                                   adversary.get());
  std::vector<NodeId> fault_free{1, 2, 3, 4};
  EXPECT_TRUE(crusader_agreement_holds(Value::of(1), /*sender_faulty=*/true,
                                       fault_free, result.decisions));
}

TEST(Crusader, ExhaustiveSweepSmallSystems) {
  // Crusader property over all faulty subsets (|F| <= m) and the standard
  // family, for n comfortably above 3m.
  for (const auto& [n, m] : std::vector<std::pair<int, int>>{{5, 1}, {8, 2}}) {
    const auto family = faults::standard_family(31);
    faults::for_each_subset(n, m, [&, n = n, m = m](
                                      const std::vector<NodeId>& faulty) {
      for (const auto& factory : family) {
        ScenarioSpec spec;
        spec.config = Config{.n = n, .m = m, .u = m};
        spec.sender = 0;
        spec.sender_value = Value::of(6);
        spec.faulty = faulty;
        auto adversary = factory.make(spec);
        const auto result =
            run_crusader(n, m, 0, Value::of(6), faulty, adversary.get());
        EXPECT_TRUE(crusader_agreement_holds(
            Value::of(6), spec.sender_faulty(), spec.fault_free_receivers(),
            result.decisions))
            << "n=" << n << " m=" << m << " " << spec.to_string() << " "
            << factory.name;
      }
    });
  }
}

TEST(Crusader, CheaperThanFullByzantineAgreement) {
  // Crusader needs 2 rounds regardless of m; OM/BYZ need m+1. With m = 3
  // the message volume gap is large.
  const auto crusader_result = run_crusader(10, 3, 0, Value::of(1), {},
                                            nullptr);
  EXPECT_EQ(crusader_result.rounds, 2);
  EXPECT_EQ(crusader_result.messages_sent, 9u + 9u * 8u);
}

TEST(Crusader, DetectVerdictIsDefaultValue) {
  // A silent faulty sender yields V_d everywhere: unanimous detection.
  auto adversary = faults::silent();
  const auto result = run_crusader(5, 1, 0, Value::of(4), {0},
                                   adversary.get());
  for (NodeId i = 1; i < 5; ++i) {
    EXPECT_EQ(result.decisions.at(i), Value::def());
  }
}

}  // namespace
}  // namespace da::protocols::crusader
