#include <gtest/gtest.h>

#include "core/agreement.hpp"
#include "faults/adversaries.hpp"
#include "faults/search.hpp"
#include "util/rng.hpp"

namespace da {
namespace {

/// Property sweep over feasible configurations: for every fault count up to
/// u and a battery of adversaries, the governing condition D.1-D.4 and the
/// (m+1)-agreement corollary hold.
class ByzProperty : public ::testing::TestWithParam<Config> {};

TEST_P(ByzProperty, ConditionsHoldUnderStandardAdversaries) {
  const Config config = GetParam();
  ASSERT_TRUE(config.feasible());
  const DegradableAgreement protocol(config);
  const auto family = faults::standard_family(2024);
  Rng rng(mix64(static_cast<std::uint64_t>(config.n),
                static_cast<std::uint64_t>(config.m * 100 + config.u)));

  for (int f = 0; f <= config.u; ++f) {
    for (int trial = 0; trial < 4; ++trial) {
      ScenarioSpec spec;
      spec.config = config;
      spec.sender = static_cast<NodeId>(rng.below(
          static_cast<std::uint64_t>(config.n)));
      spec.sender_value = Value::of(rng.range(1, 50));
      const auto subset = rng.subset(config.n, f);
      spec.faulty.assign(subset.begin(), subset.end());

      for (const auto& factory : family) {
        auto adversary = factory.make(spec);
        const ConditionReport report =
            protocol.run_and_check(spec, adversary.get());
        ASSERT_TRUE(report.satisfied)
            << spec.to_string() << " under " << factory.name << ": "
            << report.detail;
        ASSERT_TRUE(report.corollary_m_plus_1)
            << spec.to_string() << " under " << factory.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FeasibleConfigs, ByzProperty,
    ::testing::Values(Config{.n = 4, .m = 1, .u = 1},
                      Config{.n = 5, .m = 1, .u = 2},
                      Config{.n = 6, .m = 1, .u = 3},
                      Config{.n = 7, .m = 1, .u = 4},
                      Config{.n = 7, .m = 2, .u = 2},
                      Config{.n = 8, .m = 2, .u = 3},
                      Config{.n = 9, .m = 2, .u = 4},
                      Config{.n = 5, .m = 0, .u = 4},
                      Config{.n = 6, .m = 1, .u = 2},
                      Config{.n = 10, .m = 3, .u = 3},
                      Config{.n = 11, .m = 3, .u = 4},
                      Config{.n = 12, .m = 2, .u = 7}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return "n" + std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m) + "_u" +
             std::to_string(info.param.u);
    });

TEST(ByzPropertyExtra, ExtraNodesBeyondMinimumStillWork) {
  // Feasibility is monotone in n: adding nodes must never break anything.
  for (int extra = 0; extra <= 3; ++extra) {
    const Config config{.n = 5 + extra, .m = 1, .u = 2};
    const DegradableAgreement protocol(config);
    ScenarioSpec spec;
    spec.config = config;
    spec.sender = 0;
    spec.sender_value = Value::of(3);
    spec.faulty = {1, 2};
    auto adversary = faults::equivocator(Value::of(3), Value::of(4));
    const ConditionReport report =
        protocol.run_and_check(spec, adversary.get());
    EXPECT_TRUE(report.satisfied) << "extra=" << extra << " " << report.detail;
  }
}

TEST(ByzPropertyExtra, SenderIdentityIrrelevant) {
  const Config config{.n = 6, .m = 1, .u = 3};
  const DegradableAgreement protocol(config);
  for (NodeId sender = 0; sender < config.n; ++sender) {
    ScenarioSpec spec;
    spec.config = config;
    spec.sender = sender;
    spec.sender_value = Value::of(8);
    spec.faulty = {static_cast<NodeId>((sender + 1) % config.n)};
    auto adversary = faults::constant_liar(Value::of(1));
    const ConditionReport report =
        protocol.run_and_check(spec, adversary.get());
    EXPECT_TRUE(report.satisfied) << "sender=" << sender;
    EXPECT_EQ(report.applied, Condition::kD1);
  }
}

TEST(ByzPropertyExtra, FaultyNodesBeyondUBreakNothingStructurally) {
  // f > u: no conditions promised, but the protocol still terminates and
  // produces a decision for every node.
  const Config config{.n = 5, .m = 1, .u = 2};
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(5);
  spec.faulty = {1, 2, 3};
  auto adversary = faults::random_noise(5, 0, 9, 0.5);
  const sim::RunResult outcome = protocol.run(spec, adversary.get());
  EXPECT_EQ(outcome.decisions.size(), 5u);
  const ConditionReport report = check_conditions(spec, outcome.decisions);
  EXPECT_EQ(report.applied, Condition::kNone);
}

TEST(ByzPropertyExtra, DeterministicAcrossRuns) {
  const Config config{.n = 7, .m = 2, .u = 2};
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 3;
  spec.sender_value = Value::of(21);
  spec.faulty = {0, 5};
  auto a1 = faults::random_noise(99, 0, 50, 0.2);
  auto a2 = faults::random_noise(99, 0, 50, 0.2);
  const sim::RunResult o1 = protocol.run(spec, a1.get());
  const sim::RunResult o2 = protocol.run(spec, a2.get());
  EXPECT_EQ(o1.decisions, o2.decisions);
  EXPECT_EQ(o1.messages_delivered, o2.messages_delivered);
}

TEST(ByzPropertyExtra, OmissionsOnlyEverProduceDefaultOrTruth) {
  // A purely omitting adversary can push receivers to V_d but never to a
  // wrong value, under any fault count up to u.
  const Config config{.n = 6, .m = 1, .u = 3};
  const DegradableAgreement protocol(config);
  for (int f = 1; f <= 3; ++f) {
    ScenarioSpec spec;
    spec.config = config;
    spec.sender = 0;
    spec.sender_value = Value::of(31);
    for (int i = 0; i < f; ++i) spec.faulty.push_back(i + 1);
    auto adversary = faults::silent();
    const sim::RunResult outcome = protocol.run(spec, adversary.get());
    for (NodeId r : spec.fault_free_receivers()) {
      const Value d = outcome.decisions.at(r);
      EXPECT_TRUE(d == spec.sender_value || d.is_default())
          << "f=" << f << " node " << r << " got " << d.to_string();
    }
  }
}

}  // namespace
}  // namespace da
