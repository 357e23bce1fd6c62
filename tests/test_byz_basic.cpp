#include <gtest/gtest.h>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "faults/adversaries.hpp"

namespace da {
namespace {

ScenarioSpec spec_for(Config config, NodeId sender, Value v,
                      std::vector<NodeId> faulty) {
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = sender;
  spec.sender_value = v;
  spec.faulty = std::move(faulty);
  return spec;
}

TEST(ByzDepth, MatchesRecursionDepth) {
  EXPECT_EQ(core::byz_depth(0), 2);  // echo completion for m = 0
  EXPECT_EQ(core::byz_depth(1), 2);
  EXPECT_EQ(core::byz_depth(2), 3);
  EXPECT_EQ(core::byz_depth(3), 4);
}

TEST(ByzMessageCount, ClosedFormMatchesSimulator) {
  for (const auto& [n, m] : std::vector<std::pair<int, int>>{
           {4, 1}, {5, 1}, {7, 1}, {7, 2}, {9, 2}, {10, 3}}) {
    const Config config{.n = n, .m = m, .u = m};
    const DegradableAgreement protocol(config);
    const auto spec = spec_for(config, 0, Value::of(5), {});
    const sim::RunResult outcome = protocol.run(spec, nullptr);
    EXPECT_EQ(outcome.messages_sent, core::byz_message_count(n, m))
        << "n=" << n << " m=" << m;
  }
}

TEST(ByzBasic, NoFaultsEveryoneDecidesSenderValue) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const DegradableAgreement protocol(config);
  const sim::RunResult outcome =
      protocol.run(spec_for(config, 0, Value::of(42), {}), nullptr);
  for (NodeId i = 0; i < 7; ++i) {
    EXPECT_EQ(outcome.decisions.at(i), Value::of(42));
  }
}

TEST(ByzBasic, D1HoldsUnderOneLiar) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const DegradableAgreement protocol(config);
  auto adversary = faults::constant_liar(Value::of(99));
  const auto spec = spec_for(config, 0, Value::of(42), {3});
  const ConditionReport report = protocol.run_and_check(spec, adversary.get());
  EXPECT_EQ(report.applied, Condition::kD1);
  EXPECT_TRUE(report.satisfied) << report.detail;
  EXPECT_EQ(report.value_class.size(), 5u);
}

TEST(ByzBasic, D2HoldsUnderFaultySender) {
  const Config config{.n = 7, .m = 2, .u = 2};
  const DegradableAgreement protocol(config);
  auto adversary = faults::equivocator(Value::of(1), Value::of(2));
  const auto spec = spec_for(config, 0, Value::of(42), {0, 4});
  const ConditionReport report = protocol.run_and_check(spec, adversary.get());
  EXPECT_EQ(report.applied, Condition::kD2);
  EXPECT_TRUE(report.satisfied) << report.detail;
}

TEST(ByzBasic, D3DegradedModeSplitsIntoAtMostTwoClasses) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const DegradableAgreement protocol(config);
  auto adversary = faults::pivot_equivocator(Value::of(42), Value::of(13), 4);
  const auto spec = spec_for(config, 0, Value::of(42), {1, 2, 3});
  const ConditionReport report = protocol.run_and_check(spec, adversary.get());
  EXPECT_EQ(report.applied, Condition::kD3);
  EXPECT_TRUE(report.satisfied) << report.detail;
  EXPECT_TRUE(report.violators.empty());
}

TEST(ByzBasic, D4FaultySenderInDegradedMode) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const DegradableAgreement protocol(config);
  auto adversary = faults::equivocator(Value::of(5), Value::of(9));
  const auto spec = spec_for(config, 0, Value::of(42), {0, 2, 5});
  const ConditionReport report = protocol.run_and_check(spec, adversary.get());
  EXPECT_EQ(report.applied, Condition::kD4);
  EXPECT_TRUE(report.satisfied) << report.detail;
}

TEST(ByzBasic, MEqualsUIsLamportAgreement) {
  // With m = u the protocol must deliver plain Byzantine agreement; compare
  // decisions against OM(m) under the same adversary on all-fault-free and
  // light-fault scenarios.
  const Config config{.n = 7, .m = 2, .u = 2};
  const DegradableAgreement byz(config);
  const LamportAgreement om(7, 2);
  for (const std::vector<NodeId>& faulty :
       {std::vector<NodeId>{}, {1}, {1, 5}}) {
    auto adversary = faults::equivocator(Value::of(3), Value::of(8));
    const auto spec = spec_for(config, 0, Value::of(3), faulty);
    const ConditionReport report = byz.run_and_check(spec, adversary.get());
    EXPECT_TRUE(report.satisfied) << report.detail;

    auto adversary2 = faults::equivocator(Value::of(3), Value::of(8));
    const sim::RunResult om_out = om.run(spec, adversary2.get());
    const ConditionReport om_report = check_conditions(spec, om_out.decisions);
    EXPECT_TRUE(om_report.satisfied) << om_report.detail;
  }
}

TEST(ByzBasic, MinimalFeasibleSystems) {
  // N = 2m+u+1 exactly — the bound is tight (Theorem 2 + Theorem 1).
  for (const auto& [m, u] : std::vector<std::pair<int, int>>{
           {0, 1}, {1, 1}, {1, 2}, {1, 3}, {2, 2}}) {
    const Config config{.n = 2 * m + u + 1, .m = m, .u = u};
    ASSERT_TRUE(config.feasible());
    const DegradableAgreement protocol(config);
    // Worst allowed fault load, sender fault-free, equivocating faults.
    std::vector<NodeId> faulty;
    for (int i = 0; i < u; ++i) faulty.push_back(i + 1);
    auto adversary = faults::equivocator(Value::of(7), Value::of(8));
    const auto spec = spec_for(config, 0, Value::of(7), faulty);
    const ConditionReport report = protocol.run_and_check(spec, adversary.get());
    EXPECT_TRUE(report.satisfied)
        << "m=" << m << " u=" << u << ": " << report.detail;
    EXPECT_TRUE(report.corollary_m_plus_1);
  }
}

TEST(ByzBasic, CorollaryMPlusOneAgreement) {
  // N > 2m+u, f <= u: at least m+1 fault-free nodes share a value.
  const Config config{.n = 8, .m = 1, .u = 4};
  const DegradableAgreement protocol(config);
  for (int f = 0; f <= 4; ++f) {
    std::vector<NodeId> faulty;
    for (int i = 0; i < f; ++i) faulty.push_back(i + 2);
    auto adversary = faults::random_noise(1234 + f, 0, 9, 0.3);
    const auto spec = spec_for(config, 0, Value::of(4), faulty);
    const ConditionReport report = protocol.run_and_check(spec, adversary.get());
    EXPECT_TRUE(report.satisfied) << report.detail;
    EXPECT_TRUE(report.corollary_m_plus_1) << "f=" << f;
    EXPECT_GE(report.largest_agreeing_class, 2);
  }
}

TEST(ByzBasic, MZeroEchoProtocol) {
  // 0/2-degradable agreement with 3 nodes: sender fault-free + 1..2 faulty.
  const Config config{.n = 3, .m = 0, .u = 2};
  const DegradableAgreement protocol(config);
  auto adversary = faults::constant_liar(Value::of(9));
  const auto spec = spec_for(config, 0, Value::of(4), {1});
  const ConditionReport report = protocol.run_and_check(spec, adversary.get());
  EXPECT_EQ(report.applied, Condition::kD3);
  EXPECT_TRUE(report.satisfied) << report.detail;
}

TEST(ByzBasic, MZeroFaultySenderSatisfiesD4) {
  const Config config{.n = 4, .m = 0, .u = 3};
  const DegradableAgreement protocol(config);
  auto adversary = faults::equivocator(Value::of(5), Value::of(6));
  const auto spec = spec_for(config, 0, Value::of(5), {0});
  const ConditionReport report = protocol.run_and_check(spec, adversary.get());
  EXPECT_EQ(report.applied, Condition::kD4);
  EXPECT_TRUE(report.satisfied) << report.detail;
}

TEST(ByzBasic, DecisionsIncludeSender) {
  const Config config{.n = 5, .m = 1, .u = 2};
  const DegradableAgreement protocol(config);
  const sim::RunResult outcome =
      protocol.run(spec_for(config, 2, Value::of(3), {}), nullptr);
  EXPECT_EQ(outcome.decisions.at(2), Value::of(3));
}

TEST(ByzBasic, ConfigMismatchRejected) {
  const Config config{.n = 5, .m = 1, .u = 2};
  const DegradableAgreement protocol(config);
  const Config other{.n = 6, .m = 1, .u = 2};
  EXPECT_THROW((void)protocol.run(spec_for(other, 0, Value::of(1), {}),
                                  nullptr),
               std::logic_error);
}

}  // namespace
}  // namespace da
