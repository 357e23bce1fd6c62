#include "event/event_runner.hpp"

#include <gtest/gtest.h>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "faults/adversaries.hpp"
#include "obs/metrics.hpp"

namespace da::event {
namespace {

EventRunResult run_byz_event(const Config& config, const ScenarioSpec& spec,
                             sim::Adversary* adversary,
                             const TimingModel& timing,
                             std::vector<clocksync::HardwareClock> clocks) {
  sim::RunOptions options;
  options.faulty = spec.faulty;
  options.adversary = adversary;
  EventRunner runner(
      core::make_byz_processes(config, spec.sender, spec.sender_value),
      std::move(options), timing, std::move(clocks));
  return runner.run();
}

ScenarioSpec make_spec(const Config& config, std::vector<NodeId> faulty) {
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(42);
  spec.faulty = std::move(faulty);
  return spec;
}

TEST(EventRunner, PerfectClocksMatchSyncRunner) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const auto spec = make_spec(config, {2, 5});
  const DegradableAgreement protocol(config);

  auto a1 = faults::equivocator(Value::of(42), Value::of(9));
  const Outcome sync_out = protocol.run(spec, a1.get());

  auto a2 = faults::equivocator(Value::of(42), Value::of(9));
  const EventRunResult event_out = run_byz_event(
      config, spec, a2.get(), TimingModel{}, perfect_clocks(config.n));

  EXPECT_EQ(event_out.base.decisions, sync_out.decisions);
  EXPECT_EQ(event_out.base.messages_sent, sync_out.messages_sent);
  EXPECT_EQ(event_out.base.messages_delivered, sync_out.messages_delivered);
  EXPECT_EQ(event_out.false_timeouts, 0u);
}

TEST(EventRunner, SmallSkewWithinMarginStillExact) {
  // |offset| <= 0.05 and latency <= 0.10: a fault-free round-r message
  // sent at local rP arrives by real rP + 0.05 + 0.10, i.e. by local
  // rP + 0.20 < rP + timeout(0.5) at any receiver. No false timeouts.
  const Config config{.n = 6, .m = 1, .u = 3};
  const auto spec = make_spec(config, {3});
  auto adversary = faults::constant_liar(Value::of(1));
  const EventRunResult result =
      run_byz_event(config, spec, adversary.get(), TimingModel{},
                    skewed_clocks(config.n, 0.05, 1e-6, 11));
  EXPECT_EQ(result.false_timeouts, 0u);
  const auto report = check_conditions(spec, result.base.decisions);
  EXPECT_EQ(report.applied, Condition::kD1);
  EXPECT_TRUE(report.satisfied) << report.detail;
}

TEST(EventRunner, CompletionTimeTracksRounds) {
  const Config config{.n = 5, .m = 2, .u = 2};  // 3 rounds
  const auto spec = make_spec(config, {});
  const EventRunResult result = run_byz_event(
      config, spec, nullptr, TimingModel{}, perfect_clocks(config.n));
  // Last deadline: local (rounds-1)*P + timeout = 2.0 + 0.5.
  EXPECT_DOUBLE_EQ(result.completion_time, 2.5);
}

TEST(EventRunner, GrossSkewCausesFalseTimeouts) {
  // One fault-free node half a round late: its relays miss everyone
  // else's deadlines and some messages to it arrive "early" (harmless),
  // so false timeouts appear even though nobody dropped anything.
  const Config config{.n = 7, .m = 1, .u = 4};
  const auto spec = make_spec(config, {1, 2});  // f = 2 > m: sync not owed
  auto clocks = perfect_clocks(config.n);
  clocks[6] = clocksync::HardwareClock(-0.6, 0.0);  // node 6 runs late
  auto adversary = faults::equivocator(Value::of(42), Value::of(9));
  const EventRunResult result =
      run_byz_event(config, spec, adversary.get(), TimingModel{},
                    std::move(clocks));
  EXPECT_GT(result.false_timeouts, 0u);

  // Section 6.1's claim, mechanistically: the degraded conditions still
  // hold under those organic false timeouts.
  const auto report = check_conditions(spec, result.base.decisions);
  EXPECT_EQ(report.applied, Condition::kD3);
  EXPECT_TRUE(report.satisfied) << report.detail;
}

TEST(EventRunner, SkewSweepNeverProducesWrongValues) {
  // However bad the clocks get, a fault-free receiver decides the sender's
  // value or V_d (f in the degraded range).
  const Config config{.n = 7, .m = 1, .u = 4};
  const auto spec = make_spec(config, {1, 2, 3});
  for (const double spread : {0.1, 0.3, 0.6, 0.9}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      auto adversary = faults::equivocator(Value::of(42), Value::of(9));
      const EventRunResult result =
          run_byz_event(config, spec, adversary.get(), TimingModel{},
                        skewed_clocks(config.n, spread, 1e-4, seed));
      for (NodeId r : spec.fault_free_receivers()) {
        const Value d = result.base.decisions.at(r);
        EXPECT_TRUE(d == spec.sender_value || d.is_default())
            << "spread=" << spread << " seed=" << seed << " node " << r
            << " -> " << d.to_string();
      }
    }
  }
}

TEST(EventRunner, TimeoutMarginControlsFalseTimeouts) {
  // Sweeping the timeout across the latency+skew margin: generous timeout
  // -> zero false timeouts; timeout below max latency -> many.
  const Config config{.n = 6, .m = 1, .u = 3};
  const auto spec = make_spec(config, {4});
  auto clocks = skewed_clocks(config.n, 0.02, 1e-6, 3);

  TimingModel tight;
  tight.timeout = 0.05;  // below max_latency = 0.10
  auto a1 = faults::constant_liar(Value::of(7));
  const EventRunResult tight_result =
      run_byz_event(config, spec, a1.get(), tight, clocks);

  TimingModel generous;
  generous.timeout = 0.5;
  auto a2 = faults::constant_liar(Value::of(7));
  const EventRunResult generous_result =
      run_byz_event(config, spec, a2.get(), generous, clocks);

  EXPECT_GT(tight_result.false_timeouts, 0u);
  EXPECT_EQ(generous_result.false_timeouts, 0u);
}

TEST(EventRunner, DeterministicAcrossRuns) {
  const Config config{.n = 7, .m = 2, .u = 2};
  const auto spec = make_spec(config, {0, 3});
  EventRunResult first;
  for (int i = 0; i < 2; ++i) {
    auto adversary = faults::random_noise(17, 0, 20, 0.3);
    EventRunResult result =
        run_byz_event(config, spec, adversary.get(), TimingModel{},
                      skewed_clocks(config.n, 0.2, 1e-4, 5));
    if (i == 0) {
      first = std::move(result);
    } else {
      EXPECT_EQ(result.base.decisions, first.base.decisions);
      EXPECT_EQ(result.false_timeouts, first.false_timeouts);
      EXPECT_DOUBLE_EQ(result.completion_time, first.completion_time);
    }
  }
}

TEST(EventRunner, FabricationToUnknownNodeIsDroppedAndCounted) {
  // Regression: a fabrication aimed at node n+3 used to trip the arrival
  // handler's index contract and abort the run; it must be dropped (and
  // counted) before an arrival event is ever scheduled.
  class ForeignTargetFabricator final : public sim::Adversary {
   public:
    explicit ForeignTargetFabricator(NodeId target) : target_(target) {}
    std::optional<sim::Message> corrupt(
        const sim::Message& original) override {
      return original;
    }
    std::vector<sim::Message> fabricate(NodeId node, int round) override {
      return {sim::Message{
          .from = node, .to = target_, .round = round, .value = Value::of(99)}};
    }

   private:
    NodeId target_;
  };

  const Config config{.n = 5, .m = 1, .u = 2};
  const auto spec = make_spec(config, {2});
  ForeignTargetFabricator adversary(/*target=*/config.n + 3);
#ifndef DA_METRICS_DISABLED
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t before =
      registry.counter_value("sim.fabrications_dropped");
#endif
  const EventRunResult out = run_byz_event(
      config, spec, &adversary, TimingModel{}, perfect_clocks(config.n));
  // corrupt() is the identity, so the run matches a fault-free one except
  // for the fabricated sends (one per round) that are never delivered.
  EXPECT_EQ(out.base.messages_sent, out.base.messages_delivered + 2);
  EXPECT_EQ(out.false_timeouts, 0u);
  for (NodeId i = 0; i < config.n; ++i) {
    EXPECT_EQ(out.base.decisions.at(i), Value::of(42)) << "node " << i;
  }
#ifndef DA_METRICS_DISABLED
  EXPECT_EQ(registry.counter_value("sim.fabrications_dropped"), before + 2);
#endif
}

TEST(EventRunner, RejectsBadTiming) {
  const Config config{.n = 4, .m = 1, .u = 1};
  const auto spec = make_spec(config, {});
  TimingModel bad;
  bad.timeout = 2.0;  // > round_period: rounds would overlap
  sim::RunOptions options;
  EXPECT_THROW(EventRunner(core::make_byz_processes(config, spec.sender,
                                                    spec.sender_value),
                           options, bad, perfect_clocks(config.n)),
               std::logic_error);
}

TEST(EventRunner, ClockCountMustMatch) {
  const Config config{.n = 4, .m = 1, .u = 1};
  const auto spec = make_spec(config, {});
  EXPECT_THROW(EventRunner(core::make_byz_processes(config, spec.sender,
                                                    spec.sender_value),
                           sim::RunOptions{}, TimingModel{},
                           perfect_clocks(3)),
               std::logic_error);
}

}  // namespace
}  // namespace da::event
