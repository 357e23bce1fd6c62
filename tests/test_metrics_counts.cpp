// Analytic message-count formulas vs the instrumented runtimes: for each
// protocol the closed form (protocols::eig_message_count at the protocol's
// depth) must equal both the runner's own messages_sent counter and the
// delta observed on the obs registry's sim.messages_sent counter during a
// fault-free run. This pins the formulas, the instrumentation, and the
// protocols' message patterns to each other.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "obs/metrics.hpp"
#include "protocols/common/eig.hpp"
#include "protocols/crusader/crusader.hpp"
#include "protocols/ic/interactive_consistency.hpp"
#include "protocols/lamport/om.hpp"
#include "sim/runner.hpp"

namespace da {
namespace {

std::uint64_t sim_messages_sent() {
  return obs::MetricsRegistry::global().counter_value("sim.messages_sent");
}

ScenarioSpec fault_free_spec(const Config& config) {
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(17);
  return spec;
}

// ----------------------------------------------------------- formulas --

TEST(MessageCounts, EigFormulaMatchesExplicitSum) {
  // eig_message_count(n, d) = sum_{r=1..d} (n-1)(n-2)...(n-r).
  for (int n = 2; n <= 9; ++n) {
    for (int depth = 1; depth <= 4; ++depth) {
      std::uint64_t expected = 0;
      std::uint64_t level = 1;
      for (int r = 1; r <= depth && r < n; ++r) {
        level *= static_cast<std::uint64_t>(n - r);
        expected += level;
      }
      EXPECT_EQ(protocols::eig_message_count(n, depth), expected)
          << "n=" << n << " depth=" << depth;
    }
  }
}

TEST(MessageCounts, ProtocolFormulasReduceToEig) {
  EXPECT_EQ(core::byz_message_count(7, 1),
            protocols::eig_message_count(7, core::byz_depth(1)));
  EXPECT_EQ(core::byz_message_count(7, /*t=*/2, /*m=*/1),
            protocols::eig_message_count(7, 3));
  EXPECT_EQ(protocols::lamport::om_message_count(7, 2),
            protocols::eig_message_count(7, protocols::lamport::om_rounds(2)));
  EXPECT_EQ(protocols::crusader::crusader_message_count(7),
            protocols::eig_message_count(7, 2));
  EXPECT_EQ(protocols::ic::ic_message_count(7, 1),
            7 * protocols::lamport::om_message_count(7, 1));
  // The classic small cases: OM(1) at n=4 sends 3 + 3*2 = 9 messages;
  // crusader at any n sends (n-1) + (n-1)(n-2) = (n-1)^2.
  EXPECT_EQ(protocols::lamport::om_message_count(4, 1), 9u);
  EXPECT_EQ(protocols::crusader::crusader_message_count(5), 16u);
}

// ----------------------------------------------- measured == analytic --

TEST(MessageCounts, ByzMeasuredMatchesAnalytic) {
  for (const auto& [n, m] : {std::pair{4, 1}, {5, 0}, {7, 1}, {7, 2}}) {
    const Config config{.n = n, .m = m, .u = n - 2 * m - 1};
    const DegradableAgreement protocol(config);
    const std::uint64_t before = sim_messages_sent();
    const auto outcome = protocol.run(fault_free_spec(config), nullptr);
    const std::uint64_t analytic = core::byz_message_count(n, m);
    EXPECT_EQ(outcome.messages_sent, analytic) << "n=" << n << " m=" << m;
    EXPECT_EQ(sim_messages_sent() - before, analytic)
        << "n=" << n << " m=" << m;
  }
}

TEST(MessageCounts, LamportOmMeasuredMatchesAnalytic) {
  for (const auto& [n, m] : {std::pair{4, 1}, {7, 2}}) {
    const LamportAgreement protocol(n, m);
    const Config config{.n = n, .m = m, .u = m};
    const std::uint64_t before = sim_messages_sent();
    const auto outcome = protocol.run(fault_free_spec(config), nullptr);
    const std::uint64_t analytic = protocols::lamport::om_message_count(n, m);
    EXPECT_EQ(outcome.messages_sent, analytic) << "n=" << n << " m=" << m;
    EXPECT_EQ(sim_messages_sent() - before, analytic)
        << "n=" << n << " m=" << m;
  }
}

TEST(MessageCounts, CrusaderMeasuredMatchesAnalytic) {
  for (const int n : {4, 5, 7}) {
    const std::uint64_t before = sim_messages_sent();
    sim::SyncRunner runner(
        protocols::crusader::make_crusader_processes(n, 1, 0, Value::of(17)),
        sim::RunOptions{});
    const auto result = runner.run();
    const std::uint64_t analytic =
        protocols::crusader::crusader_message_count(n);
    EXPECT_EQ(result.messages_sent, analytic) << "n=" << n;
    EXPECT_EQ(sim_messages_sent() - before, analytic) << "n=" << n;
  }
}

TEST(MessageCounts, InteractiveConsistencyMeasuredMatchesAnalytic) {
  for (const auto& [n, m] : {std::pair{4, 1}, {5, 1}}) {
    std::vector<Value> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(Value::of(i + 1));
    const std::uint64_t before = sim_messages_sent();
    const auto result =
        protocols::ic::run_interactive_consistency(n, m, inputs, {}, nullptr);
    const std::uint64_t analytic = protocols::ic::ic_message_count(n, m);
    EXPECT_EQ(result.messages_sent, analytic) << "n=" << n << " m=" << m;
    EXPECT_EQ(sim_messages_sent() - before, analytic)
        << "n=" << n << " m=" << m;
  }
}

// Both runtimes execute the same protocol, so their counts must agree
// with each other and with the closed form.
TEST(MessageCounts, ThreadedRuntimeAgreesWithSimulator) {
  const Config config{.n = 4, .m = 1, .u = 1};
  const DegradableAgreement protocol(config);
  const auto spec = fault_free_spec(config);
  const auto sim_outcome = protocol.run(spec, nullptr);
  const auto threaded_outcome = protocol.run_threaded(spec, nullptr);
  EXPECT_EQ(sim_outcome.messages_sent, threaded_outcome.messages_sent);
  EXPECT_EQ(threaded_outcome.messages_sent, core::byz_message_count(4, 1));
}

}  // namespace
}  // namespace da
