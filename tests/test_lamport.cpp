#include "protocols/lamport/om.hpp"

#include <gtest/gtest.h>

#include "core/agreement.hpp"
#include "faults/adversaries.hpp"
#include "faults/search.hpp"
#include "sim/runner.hpp"

namespace da {
namespace {

sim::RunResult run_om(int n, int m, NodeId sender, Value v,
               std::vector<NodeId> faulty, sim::Adversary* adversary) {
  const LamportAgreement protocol(n, m);
  ScenarioSpec spec;
  spec.config = Config{.n = n, .m = m, .u = m};
  spec.sender = sender;
  spec.sender_value = v;
  spec.faulty = std::move(faulty);
  return protocol.run(spec, adversary);
}

TEST(Lamport, OmZeroBroadcast) {
  const sim::RunResult outcome = run_om(4, 0, 0, Value::of(5), {}, nullptr);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(outcome.decisions.at(i), Value::of(5));
  }
}

TEST(Lamport, RoundsAndMessages) {
  EXPECT_EQ(protocols::lamport::om_rounds(0), 1);
  EXPECT_EQ(protocols::lamport::om_rounds(2), 3);
  EXPECT_EQ(protocols::lamport::om_message_count(4, 1), 3u + 6u);
  EXPECT_EQ(protocols::lamport::om_message_count(7, 2), 6u + 30u + 120u);
}

TEST(Lamport, ToleratesOneFaultWithFourNodes) {
  for (const bool sender_faulty : {false, true}) {
    auto adversary = faults::equivocator(Value::of(1), Value::of(2));
    const std::vector<NodeId> faulty{sender_faulty ? 0 : 2};
    const sim::RunResult outcome =
        run_om(4, 1, 0, Value::of(7), faulty, adversary.get());
    std::vector<NodeId> fault_free;
    for (NodeId i = 1; i < 4; ++i) {
      if (i != faulty[0]) fault_free.push_back(i);
    }
    EXPECT_TRUE(protocols::lamport::byzantine_agreement_holds(
        Value::of(7), sender_faulty, fault_free, outcome.decisions));
  }
}

TEST(Lamport, ExhaustiveAgreementAtClassicalBound) {
  // OM(1) with n=4 and OM(2) with n=7: agreement for every faulty subset
  // of size <= m under the standard family.
  for (const auto& [n, m] : std::vector<std::pair<int, int>>{{4, 1}, {7, 2}}) {
    const auto family = faults::standard_family(5);
    bool all_ok = true;
    faults::for_each_subset(n, m, [&](const std::vector<NodeId>& faulty) {
      for (const auto& factory : family) {
        ScenarioSpec spec;
        spec.config = Config{.n = n, .m = m, .u = m};
        spec.sender = 0;
        spec.sender_value = Value::of(9);
        spec.faulty = faulty;
        auto adversary = factory.make(spec);
        const sim::RunResult outcome = run_om(n, m, 0, Value::of(9), faulty,
                                       adversary.get());
        const bool sender_faulty = spec.sender_faulty();
        if (!protocols::lamport::byzantine_agreement_holds(
                Value::of(9), sender_faulty, spec.fault_free_receivers(),
                outcome.decisions)) {
          all_ok = false;
        }
      }
    });
    EXPECT_TRUE(all_ok) << "n=" << n << " m=" << m;
  }
}

TEST(Lamport, BreaksBeyondClassicalBound) {
  // n=4, m=1 but f=2: OM makes no promise and a split liar indeed breaks
  // agreement — the contrast motivating degradable agreement (Section 3).
  auto adversary = faults::constant_liar(Value::of(50));
  const sim::RunResult outcome =
      run_om(4, 1, 0, Value::of(7), {2, 3}, adversary.get());
  // The lone fault-free receiver 1: majority of {7, 50, 50} = 50: a wrong,
  // non-default value — an unsafe output.
  EXPECT_EQ(outcome.decisions.at(1), Value::of(50));
}

TEST(Lamport, ThreeNodesOneTraitorImpossible) {
  // The classical 3-node impossibility: some adversary breaks n=3, m=1.
  bool broken = false;
  const auto family = faults::standard_family(17);
  faults::for_each_subset(3, 1, [&](const std::vector<NodeId>& faulty) {
    for (const auto& factory : family) {
      ScenarioSpec spec;
      spec.config = Config{.n = 3, .m = 1, .u = 1};
      spec.sender = 0;
      spec.sender_value = Value::of(9);
      spec.faulty = faulty;
      auto adversary = factory.make(spec);
      const sim::RunResult outcome =
          run_om(3, 1, 0, Value::of(9), faulty, adversary.get());
      if (!protocols::lamport::byzantine_agreement_holds(
              Value::of(9), spec.sender_faulty(),
              spec.fault_free_receivers(), outcome.decisions)) {
        broken = true;
      }
    }
  });
  EXPECT_TRUE(broken);
}

TEST(Lamport, AgreesWithByzWhenNoFaults) {
  const Config config{.n = 6, .m = 1, .u = 3};
  const DegradableAgreement byz(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 2;
  spec.sender_value = Value::of(12);
  const sim::RunResult byz_out = byz.run(spec, nullptr);
  const sim::RunResult om_out = run_om(6, 1, 2, Value::of(12), {}, nullptr);
  EXPECT_EQ(byz_out.decisions, om_out.decisions);
}

}  // namespace
}  // namespace da
