#include <gtest/gtest.h>

#include "core/agreement.hpp"
#include "faults/adversaries.hpp"
#include "sim/network.hpp"

namespace da {
namespace {

/// Section 6.1: when more than m nodes are faulty, clock synchronization is
/// no longer guaranteed, so fault-free nodes may falsely time out each
/// other's messages. The claim: BYZ still satisfies the *degraded*
/// conditions D.3/D.4 under that relaxation (and D.1/D.2 whenever f <= m,
/// where clocks stay synchronized and no false timeouts occur).

TEST(RelaxedTimeouts, ExactModeUnaffectedWhenFWithinM) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const DegradableAgreement protocol(config);
  sim::FalseTimeoutNetwork network(0.25, 42);
  network.set_active(false);  // f <= m: clock sync holds, no false timeouts

  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(11);
  spec.faulty = {4};
  auto adversary = faults::constant_liar(Value::of(5));
  RunExtras extras;
  extras.network = &network;
  const sim::RunResult outcome = protocol.run(spec, adversary.get(), extras);
  const ConditionReport report = check_conditions(spec, outcome.decisions);
  EXPECT_EQ(report.applied, Condition::kD1);
  EXPECT_TRUE(report.satisfied) << report.detail;
}

class RelaxedTimeoutSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(RelaxedTimeoutSweep, DegradedConditionsSurviveFalseTimeouts) {
  const auto [f, drop_prob] = GetParam();
  const Config config{.n = 7, .m = 1, .u = 4};
  ASSERT_GT(f, config.m);  // the relaxation only applies past m faults
  ASSERT_LE(f, config.u);
  const DegradableAgreement protocol(config);

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::FalseTimeoutNetwork network(drop_prob, seed);
    network.set_active(true);

    for (const bool sender_faulty : {false, true}) {
      ScenarioSpec spec;
      spec.config = config;
      spec.sender = 0;
      spec.sender_value = Value::of(23);
      if (sender_faulty) spec.faulty.push_back(0);
      for (int i = static_cast<int>(spec.faulty.size()); i < f; ++i) {
        spec.faulty.push_back(i + 1);
      }
      auto adversary = faults::equivocator(Value::of(23), Value::of(9));
      RunExtras extras;
      extras.network = &network;
      const sim::RunResult outcome =
          protocol.run(spec, adversary.get(), extras);
      const ConditionReport report = check_conditions(spec, outcome.decisions);
      EXPECT_EQ(report.applied,
                sender_faulty ? Condition::kD4 : Condition::kD3);
      EXPECT_TRUE(report.satisfied)
          << "seed=" << seed << " drop=" << drop_prob
          << " sender_faulty=" << sender_faulty << ": " << report.detail;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RelaxedTimeoutSweep,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(0.05, 0.2, 0.5)),
    [](const ::testing::TestParamInfo<std::tuple<int, double>>& info) {
      return "f" + std::to_string(std::get<0>(info.param)) + "_drop" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(RelaxedTimeouts, HeavyDropsPushTowardDefaultNotWrong) {
  // Even a 90% false-timeout rate can only grow the default class — no
  // fault-free receiver ever adopts a wrong value.
  const Config config{.n = 7, .m = 1, .u = 4};
  const DegradableAgreement protocol(config);
  sim::FalseTimeoutNetwork network(0.9, 7);
  network.set_active(true);

  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(23);
  spec.faulty = {1, 2};
  auto adversary = faults::constant_liar(Value::of(9));
  RunExtras extras;
  extras.network = &network;
  const sim::RunResult outcome = protocol.run(spec, adversary.get(), extras);
  for (NodeId r : spec.fault_free_receivers()) {
    const Value d = outcome.decisions.at(r);
    EXPECT_TRUE(d == spec.sender_value || d.is_default())
        << "node " << r << " decided " << d.to_string();
  }
}

TEST(RelaxedTimeouts, ThreadedRuntimeSeesIdenticalDrops) {
  // The drop pattern is a pure function of message identity, so both
  // runtimes agree even under the relaxation.
  const Config config{.n = 6, .m = 1, .u = 3};
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(3);
  spec.faulty = {2, 5};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::FalseTimeoutNetwork n1(0.3, seed);
    n1.set_active(true);
    sim::FalseTimeoutNetwork n2(0.3, seed);
    n2.set_active(true);
    auto a1 = faults::equivocator(Value::of(3), Value::of(4));
    auto a2 = faults::equivocator(Value::of(3), Value::of(4));
    RunExtras e1{.network = &n1};
    RunExtras e2{.network = &n2};
    const sim::RunResult sim_out = protocol.run(spec, a1.get(), e1);
    const sim::RunResult thr_out = protocol.run_threaded(spec, a2.get(), e2);
    EXPECT_EQ(sim_out.decisions, thr_out.decisions) << "seed " << seed;
  }
}

}  // namespace
}  // namespace da
