#include "core/degradable_ic.hpp"

#include <gtest/gtest.h>

#include "core/byz.hpp"
#include "faults/adversaries.hpp"
#include "protocols/ic/interactive_consistency.hpp"
#include "util/rng.hpp"

namespace da::core {
namespace {

using protocols::ic::IcResult;

std::vector<Value> inputs_for(int n) {
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(Value::of(200 + i));
  return inputs;
}

protocols::ic::AdversaryFactory honest_factory() {
  return [](NodeId) { return faults::honest(); };
}

TEST(DegradableIc, NoFaultsVectorsAreInputs) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const auto inputs = inputs_for(config.n);
  const IcResult result =
      run_degradable_ic(config, inputs, {}, honest_factory());
  const DicReport report = check_degradable_ic(config, inputs, {}, result);
  EXPECT_TRUE(report.satisfied) << report.detail;
  EXPECT_TRUE(report.vectors_identical);
  EXPECT_EQ(report.min_coordinate_agreement, config.n);
  for (const auto& [node, vec] : result.vectors) EXPECT_EQ(vec, inputs);
}

TEST(DegradableIc, ExactRangeKeepsVectorsIdentical) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const auto inputs = inputs_for(config.n);
  const std::vector<NodeId> faulty{3};
  const IcResult result = run_degradable_ic(
      config, inputs, faulty, [](NodeId sender) {
        return faults::equivocator(Value::of(1), Value::of(2 + sender));
      });
  const DicReport report =
      check_degradable_ic(config, inputs, faulty, result);
  EXPECT_TRUE(report.satisfied) << report.detail;
  EXPECT_TRUE(report.vectors_identical);
  // Fault-free coordinates carry the true inputs at every fault-free node.
  for (const auto& [node, vec] : result.vectors) {
    if (node == 3) continue;
    for (NodeId s = 0; s < config.n; ++s) {
      if (s == 3) continue;
      EXPECT_EQ(vec[static_cast<std::size_t>(s)],
                inputs[static_cast<std::size_t>(s)]);
    }
  }
}

TEST(DegradableIc, DegradedRangeKeepsPerCoordinateGuarantee) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const auto inputs = inputs_for(config.n);
  for (int f = 2; f <= 4; ++f) {
    Rng rng(static_cast<std::uint64_t>(f) * 71);
    std::vector<NodeId> faulty;
    for (const int x : rng.subset(config.n, f)) faulty.push_back(x);
    const IcResult result = run_degradable_ic(
        config, inputs, faulty, [f](NodeId sender) {
          return faults::random_noise(
              mix64(static_cast<std::uint64_t>(f),
                    static_cast<std::uint64_t>(sender)),
              0, 300, 0.3);
        });
    const DicReport report =
        check_degradable_ic(config, inputs, faulty, result);
    EXPECT_TRUE(report.satisfied) << "f=" << f << ": " << report.detail;
    EXPECT_GE(report.min_coordinate_agreement, config.m + 1) << "f=" << f;
  }
}

TEST(DegradableIc, BeatsClassicalIcPastOneThird) {
  // Same scenario for classical IC and degradable IC: past N/3 classical
  // IC loses vector identity entirely; degradable IC retains the m+1
  // per-coordinate guarantee.
  const int n = 7;
  const Config config{.n = n, .m = 1, .u = 4};
  const auto inputs = inputs_for(n);
  const std::vector<NodeId> faulty{1, 3, 5};  // f = 3 > 7/3

  const auto factory = [](NodeId sender) {
    return faults::pivot_equivocator(Value::of(60 + sender),
                                     Value::of(70 + sender), 3);
  };

  const auto ic = protocols::ic::run_interactive_consistency(n, 2, inputs,
                                                             faulty, factory);
  EXPECT_FALSE(
      protocols::ic::interactive_consistency_holds(ic, inputs, faulty));

  const IcResult dic = run_degradable_ic(config, inputs, faulty, factory);
  const DicReport report = check_degradable_ic(config, inputs, faulty, dic);
  EXPECT_TRUE(report.satisfied) << report.detail;
  EXPECT_GE(report.min_coordinate_agreement, 2);
}

TEST(DegradableIc, ViolationReportingWorks) {
  // Feed the checker a corrupted result and confirm it localizes the bad
  // coordinate.
  const Config config{.n = 5, .m = 1, .u = 2};
  const auto inputs = inputs_for(config.n);
  const std::vector<NodeId> faulty{4};
  IcResult result =
      run_degradable_ic(config, inputs, faulty, honest_factory());
  // Corrupt node 2's view of coordinate 1 to a third value.
  result.vectors[2][1] = Value::of(9999);
  const DicReport report =
      check_degradable_ic(config, inputs, faulty, result);
  EXPECT_FALSE(report.satisfied);
  ASSERT_EQ(report.violated_coordinates.size(), 1u);
  EXPECT_EQ(report.violated_coordinates[0], 1);
  EXPECT_FALSE(report.vectors_identical);
}

TEST(DegradableIc, DefaultInputsRejected) {
  const Config config{.n = 4, .m = 1, .u = 1};
  std::vector<Value> inputs = inputs_for(4);
  inputs[2] = Value::def();
  EXPECT_THROW(
      (void)run_degradable_ic(config, inputs, {}, honest_factory()),
      std::logic_error);
}

TEST(DegradableIc, MessageCostIsNInstances)
{
  const Config config{.n = 6, .m = 1, .u = 3};
  const IcResult result =
      run_degradable_ic(config, inputs_for(6), {}, honest_factory());
  EXPECT_EQ(result.messages_sent,
            static_cast<std::size_t>(config.n) *
                core::byz_message_count(config.n, config.m));
}

}  // namespace
}  // namespace da::core
