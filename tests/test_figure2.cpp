#include "faults/figure2.hpp"

#include <gtest/gtest.h>

#include "core/agreement.hpp"

namespace da::faults::figure2 {
namespace {

struct RunWithTrace {
  sim::RunResult outcome;
  sim::Trace trace;
  ConditionReport report;
};

RunWithTrace run(const Scenario& scenario) {
  RunWithTrace r;
  const DegradableAgreement protocol(scenario.spec.config);
  RunExtras extras;
  extras.trace = &r.trace;
  r.outcome = protocol.run(scenario.spec, scenario.adversary.get(), extras);
  r.report = check_conditions(scenario.spec, r.outcome.decisions);
  return r;
}

TEST(Figure2, ConfigIsOneNodeShortOfFeasible) {
  const auto s = scenario_a(4);
  EXPECT_FALSE(s.spec.config.feasible());
  EXPECT_TRUE(
      (Config{.n = 5, .m = 1, .u = 2}.feasible()));  // +1 node fixes it
}

TEST(Figure2, ScenarioA_D1ForcesBeta) {
  // f = 1 <= m with a fault-free sender: D.1 applies and BYZ satisfies it
  // (4 nodes suffice for plain agreement with 1 fault).
  const auto r = run(scenario_a(4));
  EXPECT_EQ(r.report.applied, Condition::kD1);
  EXPECT_TRUE(r.report.satisfied) << r.report.detail;
  EXPECT_EQ(r.outcome.decisions.at(2), kBeta);
  EXPECT_EQ(r.outcome.decisions.at(3), kBeta);
}

TEST(Figure2, ScenarioB_D2StillHolds) {
  const auto r = run(scenario_b(4));
  EXPECT_EQ(r.report.applied, Condition::kD2);
  EXPECT_TRUE(r.report.satisfied) << r.report.detail;
}

TEST(Figure2, ScenarioC_ViolatesD3) {
  // The contradiction of Theorem 2 Part I: with N = 2m+u = 4 the protocol
  // must fail in one of the three scenarios — and it is (c), where node A
  // is forced (by indistinguishability from (b)) to a wrong value.
  const auto r = run(scenario_c(4));
  EXPECT_EQ(r.report.applied, Condition::kD3);
  EXPECT_FALSE(r.report.satisfied);
  EXPECT_EQ(r.outcome.decisions.at(1), kBeta);  // neither alpha nor V_d
}

TEST(Figure2, NodeBCannotDistinguishAandB) {
  // B's received transcript is byte-identical in scenarios (a) and (b):
  // the indistinguishability the proof leans on.
  const auto ra = run(scenario_a(4));
  const auto rb = run(scenario_b(4));
  EXPECT_TRUE(ra.trace.indistinguishable_for(2, rb.trace));
  EXPECT_EQ(ra.outcome.decisions.at(2), rb.outcome.decisions.at(2));
}

TEST(Figure2, NodeACannotDistinguishBandC) {
  const auto rb = run(scenario_b(4));
  const auto rc = run(scenario_c(4));
  EXPECT_TRUE(rb.trace.indistinguishable_for(1, rc.trace));
  EXPECT_EQ(rb.outcome.decisions.at(1), rc.outcome.decisions.at(1));
}

TEST(Figure2, DistinguishableForOtherNodes) {
  // Sanity: the indistinguishability is specific to the pivot node.
  const auto ra = run(scenario_a(4));
  const auto rc = run(scenario_c(4));
  EXPECT_FALSE(ra.trace.indistinguishable_for(1, rc.trace));
}

class Figure2Lifted : public ::testing::TestWithParam<int> {};

TEST_P(Figure2Lifted, GroupSimulationAtLargerN) {
  // Part II of Theorem 2: the same three-scenario argument lifted to any
  // N = 2m+u (here m=1): (a) and (b) hold, (c) must break.
  const int n = GetParam();
  const auto ra = run(scenario_a(n));
  EXPECT_TRUE(ra.report.satisfied) << ra.report.detail;
  const auto rb = run(scenario_b(n));
  EXPECT_TRUE(rb.report.satisfied) << rb.report.detail;
  const auto rc = run(scenario_c(n));
  EXPECT_FALSE(rc.report.satisfied);
  // The pivot indistinguishabilities persist.
  EXPECT_TRUE(ra.trace.indistinguishable_for(2, rb.trace));
  EXPECT_TRUE(rb.trace.indistinguishable_for(1, rc.trace));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Figure2Lifted, ::testing::Values(4, 5, 6, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace da::faults::figure2
