#include "rt/threaded_runner.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "faults/adversaries.hpp"
#include "faults/search.hpp"
#include "obs/metrics.hpp"
#include "sim/round_engine.hpp"
#include "sim/runner.hpp"

namespace da {
namespace {

TEST(ThreadedRunner, MatchesSimulatorWithoutFaults) {
  const Config config{.n = 6, .m = 1, .u = 3};
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(33);
  const sim::RunResult sim_out = protocol.run(spec, nullptr);
  const sim::RunResult thr_out = protocol.run_threaded(spec, nullptr);
  EXPECT_EQ(sim_out.decisions, thr_out.decisions);
  EXPECT_EQ(sim_out.messages_sent, thr_out.messages_sent);
  EXPECT_EQ(sim_out.messages_delivered, thr_out.messages_delivered);
}

TEST(ThreadedRunner, MatchesSimulatorUnderAdversaries) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const DegradableAgreement protocol(config);
  const auto family = faults::standard_family(77);
  for (const auto& factory : family) {
    ScenarioSpec spec;
    spec.config = config;
    spec.sender = 1;
    spec.sender_value = Value::of(12);
    spec.faulty = {0, 3, 5};
    auto a1 = factory.make(spec);
    auto a2 = factory.make(spec);
    const sim::RunResult sim_out = protocol.run(spec, a1.get());
    const sim::RunResult thr_out = protocol.run_threaded(spec, a2.get());
    EXPECT_EQ(sim_out.decisions, thr_out.decisions) << factory.name;
  }
}

TEST(ThreadedRunner, ManyNodes) {
  // A wide population: many nodes per pool task, stepped concurrently.
  const Config config{.n = 24, .m = 1, .u = 21};
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(3);
  spec.faulty = {5, 6, 7};
  auto adversary = faults::random_noise(5, 0, 9, 0.2);
  const sim::RunResult outcome = protocol.run_threaded(spec, adversary.get());
  EXPECT_EQ(outcome.decisions.size(), 24u);
  const ConditionReport report = check_conditions(spec, outcome.decisions);
  EXPECT_TRUE(report.satisfied) << report.detail;
}

TEST(ThreadedRunner, RepeatedRunsAreDeterministic) {
  const Config config{.n = 8, .m = 2, .u = 3};
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 2;
  spec.sender_value = Value::of(5);
  spec.faulty = {0, 1, 4};
  sim::Decisions first;
  for (int run = 0; run < 3; ++run) {
    auto adversary = faults::random_noise(9, 0, 20, 0.3);
    const sim::RunResult outcome =
        protocol.run_threaded(spec, adversary.get());
    if (run == 0) {
      first = outcome.decisions;
    } else {
      EXPECT_EQ(outcome.decisions, first) << "run " << run;
    }
  }
}

TEST(ThreadedRunner, FabricationToUnknownNodeIsDroppedAndCounted) {
  // Regression: a fabrication aimed at node n+3 used to trip the inbox
  // index lookup's contract check and abort the run; it must instead be
  // dropped (and counted) with honest traffic untouched.
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
  ForeignTargetFabricator adversary(/*target=*/config.n + 3);
  sim::RunOptions options;
  options.faulty = {2};
  options.adversary = &adversary;
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t before =
      registry.counter_value("sim.fabrications_dropped");
  rt::ThreadedRunner runner(core::make_byz_processes(config, 0, Value::of(7)),
                            std::move(options));
  const sim::RunResult result = runner.run();
  // corrupt() is the identity, so the run matches a fault-free one except
  // for the fabricated sends (one per round) that are never delivered.
  EXPECT_EQ(result.messages_sent, result.messages_delivered + 2);
  for (NodeId i = 0; i < config.n; ++i) {
    EXPECT_EQ(result.decisions.at(i), Value::of(7)) << "node " << i;
  }
  EXPECT_EQ(registry.counter_value("sim.fabrications_dropped"), before + 2);
}

TEST(ThreadedRunner, PropagatesProcessExceptions) {
  // `throw_in_round` < 0 throws from start() (the serial begin); otherwise
  // node 1 throws from on_round of that round, inside a pool task, where
  // an uncaught exception would terminate the process.
  class Bomb final : public sim::Process {
   public:
    Bomb(NodeId id, int throw_in_round)
        : id_(id), throw_in_round_(throw_in_round) {}
    NodeId id() const override { return id_; }
    int total_rounds() const override { return 2; }
    void start(std::vector<sim::Message>&) override {
      if (id_ == 1 && throw_in_round_ < 0) throw std::runtime_error("boom");
    }
    void on_round(int round, const std::vector<sim::Message>&,
                  std::vector<sim::Message>&) override {
      if (id_ == 1 && round == throw_in_round_) {
        throw std::runtime_error("boom");
      }
    }
    Value decide() const override { return Value::def(); }

   private:
    NodeId id_;
    int throw_in_round_;
  };
  for (const int throw_in_round : {-1, 0, 1}) {
    std::vector<std::unique_ptr<sim::Process>> procs;
    for (NodeId i = 0; i < 3; ++i) {
      procs.push_back(std::make_unique<Bomb>(i, throw_in_round));
    }
    rt::ThreadedRunner runner(std::move(procs), sim::RunOptions{});
    EXPECT_THROW((void)runner.run(), std::runtime_error)
        << "throw_in_round " << throw_in_round;
  }
}

// Forwards to a protocol process and records which thread stepped it in
// each round. The first node naps in its steps so that, across many runs,
// the pool's worker gets to step a chunk while the caller steps its own.
class ThreadRecorder final : public sim::Process {
 public:
  using Log = std::map<int, std::set<std::thread::id>>;

  ThreadRecorder(std::unique_ptr<sim::Process> inner, std::mutex& mu,
                 Log& log, bool nap)
      : inner_(std::move(inner)), mu_(mu), log_(log), nap_(nap) {}
  NodeId id() const override { return inner_->id(); }
  int total_rounds() const override { return inner_->total_rounds(); }
  void start(std::vector<sim::Message>& out) override { inner_->start(out); }
  void on_round(int round, const std::vector<sim::Message>& inbox,
                std::vector<sim::Message>& out) override {
    if (nap_) std::this_thread::sleep_for(std::chrono::microseconds(100));
    {
      const std::lock_guard<std::mutex> lock(mu_);
      log_[round].insert(std::this_thread::get_id());
    }
    inner_->on_round(round, inbox, out);
  }
  Value decide() const override { return inner_->decide(); }

 private:
  std::unique_ptr<sim::Process> inner_;
  std::mutex& mu_;
  Log& log_;
  bool nap_;
};

std::map<std::string, std::uint64_t> sim_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] :
       obs::MetricsRegistry::global().snapshot().counters) {
    if (name.rfind("sim.", 0) == 0) out[name] = value;
  }
  return out;
}

std::map<std::string, std::uint64_t> minus(
    std::map<std::string, std::uint64_t> after,
    const std::map<std::string, std::uint64_t>& before) {
  for (auto& [name, value] : after) {
    const auto it = before.find(name);
    if (it != before.end()) value -= it->second;
  }
  return after;
}

TEST(ThreadedRunner, LongLivedPoolMatchesSimulatorOverManyRuns) {
  // Back-to-back runs on the one process-wide pool, over mixed (n, m) and
  // adversaries: each must decide and count exactly what the simulator
  // does, and some round must step nodes on two threads at once.
  const std::vector<Config> configs = {{.n = 4, .m = 1, .u = 1},
                                       {.n = 5, .m = 1, .u = 2},
                                       {.n = 6, .m = 1, .u = 3},
                                       {.n = 7, .m = 2, .u = 2},
                                       {.n = 8, .m = 1, .u = 5}};
  const auto family = faults::standard_family(16);
  std::mutex mu;
  bool two_threads = false;
  int runs = 0;
  for (int rep = 0; runs < 200; ++rep) {
    const Config& config = configs[static_cast<std::size_t>(rep) %
                                   configs.size()];
    const auto& factory = family[static_cast<std::size_t>(rep) % family.size()];
    ScenarioSpec spec;
    spec.config = config;
    spec.sender = static_cast<NodeId>(rep % config.n);
    spec.sender_value = Value::of(rep % 7 + 1);
    spec.faulty = {static_cast<NodeId>((rep + 1) % config.n)};
    const auto options = [&](sim::Adversary* adversary) {
      sim::RunOptions o;
      o.faulty = spec.faulty;
      o.adversary = adversary;
      return o;
    };

    auto a1 = factory.make(spec);
    const auto sync_before = sim_counters();
    const sim::RunResult sync =
        sim::RoundEngine(core::make_byz_processes(config, spec.sender,
                                                  spec.sender_value),
                         options(a1.get()))
            .run();
    const auto sync_delta = minus(sim_counters(), sync_before);

    ThreadRecorder::Log log;
    std::vector<std::unique_ptr<sim::Process>> procs;
    for (auto& p : core::make_byz_processes(config, spec.sender,
                                            spec.sender_value)) {
      const bool nap = procs.empty();
      procs.push_back(
          std::make_unique<ThreadRecorder>(std::move(p), mu, log, nap));
    }
    auto a2 = factory.make(spec);
    const auto threaded_before = sim_counters();
    const sim::RunResult threaded =
        rt::ThreadedRunner(std::move(procs), options(a2.get())).run();
    const auto threaded_delta = minus(sim_counters(), threaded_before);

    EXPECT_EQ(sync.decisions, threaded.decisions)
        << factory.name << " " << spec.to_string();
    EXPECT_EQ(sync.messages_sent, threaded.messages_sent);
    EXPECT_EQ(sync.messages_delivered, threaded.messages_delivered);
    EXPECT_EQ(sync_delta, threaded_delta)
        << factory.name << " " << spec.to_string();
    for (const auto& [round, threads] : log) {
      if (threads.size() >= 2) two_threads = true;
    }
    ++runs;
  }
  EXPECT_TRUE(two_threads)
      << "no round stepped nodes on two threads in " << runs << " runs";
}

}  // namespace
}  // namespace da
