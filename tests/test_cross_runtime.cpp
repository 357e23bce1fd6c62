// Cross-runtime equivalence: the deterministic simulator, the
// pool-parallel threaded runtime, and the event-driven runtime (with
// perfect clocks and latency within the timeout) must produce identical
// decisions for identical scenarios — the protocol body is written once,
// and all stochastic behaviour is a pure function of message identity.
// The simulator and the threaded runtime share one round core, so both
// are also checked against a naive reference executor
// (tests/reference_executor.hpp) that shares none of it.

#include <gtest/gtest.h>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "event/event_runner.hpp"
#include "faults/adversaries.hpp"
#include "faults/search.hpp"
#include "inject/injection_network.hpp"
#include "reference_executor.hpp"
#include "rt/threaded_runner.hpp"
#include "util/rng.hpp"

namespace da {
namespace {

struct Case {
  Config config;
  int f;
  std::uint64_t seed;
};

class CrossRuntime : public ::testing::TestWithParam<Case> {};

TEST_P(CrossRuntime, AllThreeRuntimesAgree) {
  const auto& [config, f, seed] = GetParam();
  const DegradableAgreement protocol(config);
  const auto family = faults::standard_family(seed);

  Rng rng(seed);
  for (int trial = 0; trial < 3; ++trial) {
    ScenarioSpec spec;
    spec.config = config;
    spec.sender =
        static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(config.n)));
    spec.sender_value = Value::of(rng.range(1, 99));
    const auto subset = rng.subset(config.n, f);
    spec.faulty.assign(subset.begin(), subset.end());

    for (std::size_t k = 0; k < family.size(); k += 3) {
      const auto& factory = family[k];

      auto a1 = factory.make(spec);
      const Outcome sim_out = protocol.run(spec, a1.get());

      auto a2 = factory.make(spec);
      const Outcome thr_out = protocol.run_threaded(spec, a2.get());

      auto a3 = factory.make(spec);
      sim::RunOptions options;
      options.faulty = spec.faulty;
      options.adversary = a3.get();
      event::EventRunner event_runner(
          core::make_byz_processes(config, spec.sender, spec.sender_value),
          std::move(options), event::TimingModel{},
          event::perfect_clocks(config.n));
      const auto event_out = event_runner.run();

      EXPECT_EQ(sim_out.decisions, thr_out.decisions)
          << factory.name << " " << spec.to_string();
      EXPECT_EQ(sim_out.decisions, event_out.base.decisions)
          << factory.name << " " << spec.to_string();
      EXPECT_EQ(sim_out.messages_sent, event_out.base.messages_sent);
      EXPECT_EQ(event_out.false_timeouts, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CrossRuntime,
    ::testing::Values(Case{Config{.n = 5, .m = 1, .u = 2}, 2, 1},
                      Case{Config{.n = 7, .m = 1, .u = 4}, 3, 2},
                      Case{Config{.n = 7, .m = 2, .u = 2}, 2, 3},
                      Case{Config{.n = 6, .m = 0, .u = 5}, 4, 4},
                      Case{Config{.n = 9, .m = 2, .u = 4}, 4, 5}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "n" + std::to_string(info.param.config.n) + "_m" +
             std::to_string(info.param.config.m) + "_u" +
             std::to_string(info.param.config.u) + "_f" +
             std::to_string(info.param.f);
    });

TEST(CrossRuntimeExtra, FabricatingAdversaryStaysDeterministic) {
  // An adversary that *injects* duplicate-slot messages with conflicting
  // values exercises the total inbox order; both runtimes must still
  // agree decision-for-decision.
  class Duplicator final : public sim::Adversary {
   public:
    std::optional<sim::Message> corrupt(const sim::Message& msg) override {
      return msg;
    }
    std::vector<sim::Message> fabricate(NodeId node, int round) override {
      if (round != 1) return {};
      std::vector<sim::Message> out;
      // Duplicate relay slots with two different values.
      for (NodeId to = 0; to < 5; ++to) {
        if (to == node || to == 0) continue;
        for (std::int64_t v : {77, 78}) {
          sim::Message msg;
          msg.from = node;
          msg.to = to;
          msg.round = round;
          msg.path = Path{0, node};
          msg.value = Value::of(v);
          out.push_back(msg);
        }
      }
      return out;
    }
  };

  const Config config{.n = 5, .m = 1, .u = 2};
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(4);
  spec.faulty = {2};

  Duplicator a1;
  const Outcome sim_out = protocol.run(spec, &a1);
  Duplicator a2;
  const Outcome thr_out = protocol.run_threaded(spec, &a2);
  EXPECT_EQ(sim_out.decisions, thr_out.decisions);

  // And the injected garbage must not break the degraded conditions.
  const auto report = check_conditions(spec, sim_out.decisions);
  EXPECT_TRUE(report.satisfied) << report.detail;
}

// An adversary that forges metadata: every corrupted message claims
// another sender, another receiver and a later round. The runtimes must
// restore from/to/round, so only the value change reaches anyone.
class MetadataForger final : public sim::Adversary {
 public:
  explicit MetadataForger(int n) : n_(n) {}
  std::optional<sim::Message> corrupt(const sim::Message& msg) override {
    sim::Message forged = msg;
    forged.from = (msg.from + 1) % n_;
    forged.to = (msg.to + 1) % n_;
    forged.round = msg.round + 1;
    forged.value = Value::of(66);
    return forged;
  }

 private:
  int n_;
};

// Fabricates, every round, one message at node n+3 (outside the instance:
// dropped) and two conflicting copies of one relay slot at each peer.
class OutsideAndDuplicateFabricator final : public sim::Adversary {
 public:
  OutsideAndDuplicateFabricator(int n, NodeId sender)
      : n_(n), sender_(sender) {}
  std::optional<sim::Message> corrupt(const sim::Message& msg) override {
    return msg;
  }
  std::vector<sim::Message> fabricate(NodeId node, int round) override {
    std::vector<sim::Message> out{sim::Message{
        .from = node, .to = n_ + 3, .round = round, .value = Value::of(99)}};
    for (NodeId to = 0; to < n_; ++to) {
      if (to == node || to == sender_) continue;
      for (const std::int64_t v : {77, 78}) {
        out.push_back(sim::Message{.from = node,
                                   .to = to,
                                   .round = round,
                                   .path = Path{sender_, node},
                                   .value = Value::of(v)});
      }
    }
    return out;
  }

 private:
  int n_;
  NodeId sender_;
};

TEST(CrossRuntimeReference, EngineRuntimesMatchNaiveExecutor) {
  const Config configs[] = {Config{.n = 5, .m = 1, .u = 2},
                            Config{.n = 7, .m = 1, .u = 4},
                            Config{.n = 7, .m = 2, .u = 2}};
  Rng rng(2024);
  for (const Config& config : configs) {
    const auto family = faults::standard_family(rng.next());
    for (int trial = 0; trial < 2; ++trial) {
      ScenarioSpec spec;
      spec.config = config;
      spec.sender = static_cast<NodeId>(
          rng.below(static_cast<std::uint64_t>(config.n)));
      spec.sender_value = Value::of(rng.range(1, 99));
      const auto subset = rng.subset(config.n, config.m + 1);
      spec.faulty.assign(subset.begin(), subset.end());
      const auto processes = [&] {
        return core::make_byz_processes(config, spec.sender,
                                        spec.sender_value);
      };
      const int rounds = processes().front()->total_rounds();

      std::vector<faults::NamedAdversaryFactory> adversaries = family;
      adversaries.push_back({"metadata-forger", [&](const ScenarioSpec&) {
                               return std::unique_ptr<sim::Adversary>(
                                   new MetadataForger(config.n));
                             }});
      adversaries.push_back(
          {"outside-and-duplicate-fabricator", [&](const ScenarioSpec&) {
             return std::unique_ptr<sim::Adversary>(
                 new OutsideAndDuplicateFabricator(config.n, spec.sender));
           }});

      for (const auto& factory : adversaries) {
        for (const bool injected : {false, true}) {
          const inject::FaultPlan plan =
              inject::FaultPlan::from_seed(rng.next(), config.n, rounds);
          const std::string what = factory.name + " " + spec.to_string() +
                                   (injected ? " plan " + plan.to_string()
                                             : std::string(" reliable"));

          auto ref_adversary = factory.make(spec);
          inject::InjectionNetwork ref_net(plan);
          sim::Trace ref_trace;
          const reference::Result want = reference::run(
              processes(), spec.faulty, ref_adversary.get(),
              injected ? &ref_net : nullptr, &ref_trace);

          for (const bool threaded : {false, true}) {
            auto adversary = factory.make(spec);
            inject::InjectionNetwork net(plan);
            sim::Trace trace;
            sim::RunOptions options;
            options.faulty = spec.faulty;
            options.adversary = adversary.get();
            options.network = injected ? &net : nullptr;
            options.trace = &trace;
            const sim::RunResult got =
                threaded
                    ? rt::ThreadedRunner(processes(), std::move(options)).run()
                    : sim::RoundEngine(processes(), std::move(options)).run();
            const std::string runtime = threaded ? "threaded " : "sim ";
            EXPECT_EQ(got.decisions, want.decisions) << runtime << what;
            EXPECT_EQ(got.messages_sent, want.messages_sent)
                << runtime << what;
            EXPECT_EQ(got.messages_delivered, want.messages_delivered)
                << runtime << what;
            for (NodeId id = 0; id < config.n; ++id) {
              EXPECT_EQ(trace.transcript(id), ref_trace.transcript(id))
                  << runtime << what << " node " << id;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace da
