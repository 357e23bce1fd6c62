// Fork-vs-scratch differential for the checkpoint/fork round engine
// (sim/round_engine.hpp): an execution assembled from begin / snapshot /
// restore / fork pieces must be byte-identical — canonical trace,
// decisions and D.1-D.4 verdict — to the same scenario executed from
// scratch by one `RoundEngine::run()`, for all six protocols. Corpus
// lines in tests/corpus/fork_engine.txt are replayed before any
// randomized trials; append any (seed, ordinal) pair a randomized run
// flags.

#include "sim/round_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/byz.hpp"
#include "core/checker.hpp"
#include "faults/adversaries.hpp"
#include "faults/behavior_search.hpp"
#include "faults/search.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "protocols/authenticated/signatures.hpp"
#include "protocols/authenticated/sm.hpp"
#include "protocols/crusader/crusader.hpp"
#include "protocols/lamport/om.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace da {
namespace {

using protocols::authenticated::SignatureAuthority;

// ------------------------------------------------------------- case space
//
// Mirrors the cross-runtime differential harness (inject/differ.cpp):
// ordinal o exercises protocol o % 6 on a small feasible-or-tight config
// with a random sender, value and faulty subset. A pure function of
// (seed, ordinal), so corpus lines replay identically.

enum class Proto { kByz, kOm, kCrusader, kSm, kIc, kDic };
constexpr int kProtoCount = 6;

struct ForkCase {
  Proto protocol = Proto::kByz;
  ScenarioSpec spec;
  std::uint64_t adversary_seed = 0;
};

ForkCase draw_fork_case(std::uint64_t seed, std::uint64_t ordinal) {
  Rng rng(mix64(mix64(seed, 0xF08Bull), ordinal));
  ForkCase c;
  c.protocol = static_cast<Proto>(ordinal % kProtoCount);
  int n = 0;
  int m = 0;
  int u = 0;
  switch (c.protocol) {
    case Proto::kByz:
      m = static_cast<int>(rng.below(2));
      u = m + static_cast<int>(rng.below(2));
      if (u == 0) u = 1;
      n = 2 * m + u + 1 + static_cast<int>(rng.below(2));
      break;
    case Proto::kOm:
      m = 1;
      u = 1;
      n = 4 + static_cast<int>(rng.below(3));
      break;
    case Proto::kCrusader:
      m = 1;
      u = 1 + static_cast<int>(rng.below(2));
      n = 2 * m + u + 1 + static_cast<int>(rng.below(2));
      break;
    case Proto::kSm:
      m = 1 + static_cast<int>(rng.below(2));
      u = m;
      n = 4 + static_cast<int>(rng.below(2));
      break;
    case Proto::kIc:
      m = 1;
      u = 1;
      n = 4 + static_cast<int>(rng.below(2));
      break;
    case Proto::kDic:
      m = 1;
      u = 1 + static_cast<int>(rng.below(2));
      n = 2 * m + u + 1;
      break;
  }
  c.spec.config = Config{n, m, u};
  c.spec.sender =
      static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
  c.spec.sender_value = Value::of(rng.range(1, 9));
  const int f = static_cast<int>(rng.below(static_cast<std::uint64_t>(u) + 1));
  for (int id : rng.subset(n, f)) {
    c.spec.faulty.push_back(static_cast<NodeId>(id));
  }
  c.adversary_seed = rng.next();
  return c;
}

std::string case_name(std::uint64_t seed, std::uint64_t ordinal,
                      const ForkCase& c) {
  return "seed=" + std::to_string(seed) +
         " ordinal=" + std::to_string(ordinal) + " " + c.spec.to_string();
}

std::vector<std::unique_ptr<sim::Process>> make_processes(
    const ForkCase& c, const SignatureAuthority& authority) {
  const Config& cfg = c.spec.config;
  switch (c.protocol) {
    case Proto::kByz:
    case Proto::kDic:
      return core::make_byz_processes(cfg, c.spec.sender, c.spec.sender_value);
    case Proto::kOm:
    case Proto::kIc:
      return protocols::lamport::make_om_processes(
          cfg.n, cfg.m, c.spec.sender, c.spec.sender_value);
    case Proto::kCrusader:
      return protocols::crusader::make_crusader_processes(
          cfg.n, cfg.m, c.spec.sender, c.spec.sender_value);
    case Proto::kSm:
      return protocols::authenticated::make_sm_processes(
          cfg.n, cfg.m, c.spec.sender, c.spec.sender_value, authority);
  }
  return {};
}

/// A fresh adversary for the case. Every family member decides from the
/// message identity alone (no internal state consumed across calls), so a
/// freshly built copy behaves identically from any fork boundary — the
/// property the checkpointed searches rely on.
std::unique_ptr<sim::Adversary> make_adversary(
    const ForkCase& c, const SignatureAuthority& authority) {
  switch (mix64(c.adversary_seed, 0xADull) % 5) {
    case 0: return faults::silent();
    case 1: return faults::constant_liar(Value::of(99));
    case 2:
      if (c.protocol == Proto::kSm) {
        return protocols::authenticated::signing_equivocator(
            authority, c.spec.faulty, c.spec.sender_value, Value::of(88));
      }
      return faults::equivocator(c.spec.sender_value, Value::of(88));
    case 3: return faults::crash_after(1);
    case 4:
      return faults::random_noise(mix64(c.adversary_seed, 0xA0ull), 1, 9, 0.2);
  }
  return faults::honest();
}

/// Canonical byte-comparable artifact of one execution: the JSONL trace
/// export, the decision vector and the governing D.1-D.4 verdict.
std::string artifact_of(const sim::Trace& trace, const sim::RunResult& result,
                        const ScenarioSpec& spec) {
  std::string out = obs::trace_to_jsonl(trace);
  for (const auto& [node, value] : result.decisions) {
    out += std::to_string(node) + "=" + value.to_string() + ";";
  }
  const ConditionReport report = check_conditions(spec, result.decisions);
  out += std::string(to_string(report.applied)) +
         (report.satisfied ? "+" : "-");
  return out;
}

std::string run_scratch(const ForkCase& c, const SignatureAuthority& authority) {
  std::unique_ptr<sim::Adversary> adversary;
  if (!c.spec.faulty.empty()) adversary = make_adversary(c, authority);
  sim::Trace trace;
  sim::RunOptions options;
  options.faulty = c.spec.faulty;
  options.adversary = adversary.get();
  options.trace = &trace;
  const sim::RunResult result =
      sim::RoundEngine(make_processes(c, authority), std::move(options)).run();
  return artifact_of(trace, result, c.spec);
}

void run_to_completion(sim::RoundEngine& engine) {
  while (!engine.done()) {
    engine.dispatch_pending();
    engine.process_round();
  }
}

/// The differential proper: scratch vs (a) incremental execution with a
/// snapshot taken at the round-0 boundary, (b) a fork rewound to that
/// boundary under a freshly built adversary, and (c) — when the sender is
/// honest — the search_violation pattern of an honest-prefix checkpoint
/// whose forks swap adversaries in. All artifacts must be byte-identical.
void check_fork_case(std::uint64_t seed, std::uint64_t ordinal) {
  const ForkCase c = draw_fork_case(seed, ordinal);
  SCOPED_TRACE(case_name(seed, ordinal, c));
  const SignatureAuthority authority(mix64(c.adversary_seed, 0x516ull),
                                     c.spec.config.n);
  const std::string scratch = run_scratch(c, authority);
  const obs::MetricsScope metrics_scope;

  std::unique_ptr<sim::Adversary> adversary;
  if (!c.spec.faulty.empty()) adversary = make_adversary(c, authority);
  sim::Trace trace;
  sim::RunOptions options;
  options.faulty = c.spec.faulty;
  options.adversary = adversary.get();
  options.trace = &trace;
  sim::RoundEngine engine(make_processes(c, authority), std::move(options));
  engine.begin();
  const sim::RoundEngine::Snapshot at_begin = engine.snapshot();
  run_to_completion(engine);
  EXPECT_EQ(scratch, artifact_of(trace, engine.finish(), c.spec))
      << "incremental execution diverged from a one-shot run";

  std::unique_ptr<sim::Adversary> fork_adversary;
  if (!c.spec.faulty.empty()) {
    fork_adversary = make_adversary(c, authority);
    engine.set_adversary(fork_adversary.get());
  }
  engine.restore(at_begin);
  run_to_completion(engine);
  EXPECT_EQ(scratch, artifact_of(trace, engine.finish(), c.spec))
      << "fork from the round-0 boundary diverged";

  if (!c.spec.faulty.empty() && !c.spec.sender_faulty()) {
    sim::HonestAdversary honest;
    sim::Trace fork_trace;
    sim::RunOptions fork_options;
    fork_options.faulty = c.spec.faulty;
    fork_options.adversary = &honest;
    fork_options.trace = &fork_trace;
    sim::RoundEngine forked(make_processes(c, authority),
                            std::move(fork_options));
    forked.begin();
    forked.dispatch_pending();
    forked.process_round();
    const sim::RoundEngine::Snapshot prefix = forked.snapshot();
    for (int fork = 0; fork < 2; ++fork) {
      auto adv = make_adversary(c, authority);
      forked.set_adversary(adv.get());
      if (fork > 0) forked.restore(prefix);
      run_to_completion(forked);
      EXPECT_EQ(scratch, artifact_of(fork_trace, forked.finish(), c.spec))
          << "honest-prefix fork " << fork << " diverged";
    }
  }
}

// --------------------------------------------------- corpus, then random

TEST(ForkEngine, CorpusReplay) {
  std::ifstream in(std::string(DA_TEST_CORPUS_DIR) + "/fork_engine.txt");
  ASSERT_TRUE(in.is_open()) << "missing tests/corpus/fork_engine.txt";
  std::string line;
  int replayed = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::uint64_t ordinal = 0;
    ASSERT_TRUE(fields >> seed >> ordinal) << "bad corpus line: " << line;
    check_fork_case(seed, ordinal);
    ++replayed;
  }
  EXPECT_GE(replayed, 12);  // at least two cases per protocol
}

TEST(ForkEngine, RandomizedTriples) {
  Rng rng(0xF0CC5ull);
  for (int trial = 0; trial < 36; ++trial) {
    check_fork_case(rng.next(), static_cast<std::uint64_t>(trial));
  }
}

// ------------------------------------------------- round-boundary sweeps

TEST(ForkEngine, SnapshotAtEveryRoundBoundary) {
  // Depth-3 BYZ so the walk crosses more than one interior boundary.
  ScenarioSpec spec;
  spec.config = Config{.n = 7, .m = 2, .u = 2};
  spec.sender = 0;
  spec.sender_value = Value::of(5);
  spec.faulty = {1, 3};
  const auto adversary = faults::equivocator(Value::of(5), Value::of(6));

  sim::Trace scratch_trace;
  sim::RunOptions scratch_options;
  scratch_options.faulty = spec.faulty;
  scratch_options.adversary = adversary.get();
  scratch_options.trace = &scratch_trace;
  const sim::RunResult scratch_result =
      sim::RoundEngine(
          core::make_byz_processes(spec.config, spec.sender, spec.sender_value),
          std::move(scratch_options))
          .run();
  const std::string scratch = artifact_of(scratch_trace, scratch_result, spec);

  const obs::MetricsScope metrics_scope;
  sim::Trace trace;
  sim::RunOptions options;
  options.faulty = spec.faulty;
  options.adversary = adversary.get();
  options.trace = &trace;
  sim::RoundEngine engine(
      core::make_byz_processes(spec.config, spec.sender, spec.sender_value),
      std::move(options));
  engine.begin();
  std::vector<sim::RoundEngine::Snapshot> boundaries;
  boundaries.push_back(engine.snapshot());
  while (!engine.done()) {
    engine.dispatch_pending();
    engine.process_round();
    boundaries.push_back(engine.snapshot());
  }
  ASSERT_EQ(boundaries.size(),
            static_cast<std::size_t>(engine.total_rounds()) + 1);
  EXPECT_EQ(scratch, artifact_of(trace, engine.finish(), spec));

  // The adversary decides per message identity, so rewinding to any
  // boundary — including the final one — must reproduce the execution.
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    engine.restore(boundaries[b]);
    EXPECT_EQ(engine.rounds_processed(), static_cast<int>(b));
    run_to_completion(engine);
    EXPECT_EQ(scratch, artifact_of(trace, engine.finish(), spec))
        << "restore to boundary " << b << " diverged";
  }
}

// ------------------------------------- search equivalence and invariance

// The behaviour walk forks every execution from a checkpointed round-0
// state and visits only quotient representatives; `behavior_at` re-runs
// one ordinal of the full enumeration from scratch. Scanned in ordinal
// order, the scratch path is the independent reference.
TEST(ForkEngine, BehaviorWalkMatchesScratchReference) {
  struct Case {
    Config config;
    std::uint64_t space;
    std::optional<std::uint64_t> first_hit;
  };
  for (const Case& c : {Case{{.n = 4, .m = 1, .u = 2}, 3952, 129},
                        Case{{.n = 4, .m = 1, .u = 1}, 112, std::nullopt}}) {
    ASSERT_EQ(faults::behavior_search_space(c.config), c.space);
    std::optional<std::uint64_t> reference;
    std::optional<faults::Violation> reference_violation;
    for (std::uint64_t o = 0; o < c.space && !reference; ++o) {
      reference_violation = faults::behavior_at(c.config, -1, o);
      if (reference_violation.has_value()) reference = o;
    }
    ASSERT_EQ(reference, c.first_hit) << c.config.to_string();

    for (const int jobs : {1, 3}) {
      sweep::SweepOptions options;
      options.jobs = jobs;
      sweep::SweepStats stats;
      const auto violation = faults::exhaustive_behavior_search(
          c.config, faults::BehaviorSearchOptions{}, options, &stats);
      std::uint64_t first_hit = sweep::kNoHit;
      for (const sweep::ShardStats& shard : stats.per_shard) {
        first_hit = std::min(first_hit, shard.first_hit);
      }
      EXPECT_EQ(first_hit, reference.value_or(sweep::kNoHit))
          << c.config.to_string() << " jobs=" << jobs;
      if (!reference) {
        // Clean: the representatives reconcile to the whole space.
        EXPECT_EQ(stats.executions,
                  faults::behavior_search_quotient_space(c.config))
            << c.config.to_string() << " jobs=" << jobs;
        EXPECT_EQ(stats.weighted_executions, c.space)
            << c.config.to_string() << " jobs=" << jobs;
      }
      ASSERT_EQ(violation.has_value(), reference_violation.has_value());
      if (violation.has_value()) {
        EXPECT_EQ(violation->adversary, reference_violation->adversary);
        EXPECT_EQ(violation->spec.to_string(),
                  reference_violation->spec.to_string());
      }
    }
  }
}

// `search_violation` shares one checkpointed prefix per scenario across
// the adversary family. The reference is a plain loop of run_and_check
// over the same scan order: sender 0, fault count ascending, subsets
// lexicographic, then the random probes, each spec derived from its
// scenario ordinal; a fault-free scenario runs "silent" only.
TEST(ForkEngine, SearchViolationMatchesScratchReference) {
  constexpr int kRandomTrials = 2;
  for (const Config& config :
       {Config{.n = 5, .m = 1, .u = 2}, Config{.n = 4, .m = 1, .u = 2}}) {
    faults::SearchOptions options;
    options.random_trials = kRandomTrials;
    const auto family = faults::standard_family(options.seed);
    const DegradableAgreement protocol(config);

    std::optional<faults::Violation> reference;
    std::uint64_t reference_executions = 0;
    std::uint64_t ordinal = 0;
    const auto scan = [&](const ScenarioSpec& spec) {
      ++ordinal;
      if (reference.has_value()) return;
      for (const auto& factory : family) {
        if (spec.f() == 0 && factory.name != "silent") continue;
        auto adversary = factory.make(spec);
        ++reference_executions;
        const ConditionReport report =
            protocol.run_and_check(spec, adversary.get());
        if (!report.satisfied) {
          reference = faults::Violation{spec, factory.name, report};
          return;
        }
      }
    };
    for (int f = 0; f <= config.u; ++f) {
      faults::for_each_subset(config.n, f, [&](const std::vector<NodeId>& s) {
        ScenarioSpec spec;
        spec.config = config;
        spec.sender_value = Value::of(7);
        spec.faulty = s;
        scan(spec);
      });
      for (int t = 0; t < kRandomTrials; ++t) {
        Rng rng(mix64(mix64(options.seed, 0xda), ordinal));
        ScenarioSpec spec;
        spec.config = config;
        spec.sender_value = Value::of(rng.range(1, 100));
        const std::vector<int> subset = rng.subset(config.n, f);
        spec.faulty.assign(subset.begin(), subset.end());
        scan(spec);
      }
    }

    for (const int jobs : {1, 3}) {
      sweep::SweepOptions sweep_options;
      sweep_options.jobs = jobs;
      sweep::SweepStats stats;
      const auto violation =
          faults::search_violation(config, options, sweep_options, &stats);
      ASSERT_EQ(violation.has_value(), reference.has_value())
          << config.to_string() << " jobs=" << jobs;
      if (violation.has_value()) {
        EXPECT_EQ(violation->adversary, reference->adversary)
            << config.to_string() << " jobs=" << jobs;
        EXPECT_EQ(violation->spec.to_string(), reference->spec.to_string())
            << config.to_string() << " jobs=" << jobs;
      }
      EXPECT_EQ(stats.executions, reference_executions)
          << config.to_string() << " jobs=" << jobs;
    }
  }
}

TEST(ForkEngine, CheckpointCountersVisible) {
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t checkpoints0 = registry.counter_value("search.checkpoints");
  const std::uint64_t forks0 = registry.counter_value("search.forks");
  const std::uint64_t skipped0 = registry.counter_value("search.rounds_skipped");
  const std::uint64_t replayed0 =
      registry.counter_value("search.rounds_replayed");

  // A clean config scans its whole space, so the walk forks throughout.
  const Config config{.n = 4, .m = 1, .u = 1};
  const auto violation = faults::exhaustive_behavior_search(
      config, faults::BehaviorSearchOptions{}, sweep::SweepOptions{});
  EXPECT_FALSE(violation.has_value());

  EXPECT_GT(registry.counter_value("search.checkpoints"), checkpoints0);
  EXPECT_GT(registry.counter_value("search.forks"), forks0);
  EXPECT_GT(registry.counter_value("search.rounds_skipped"), skipped0);
  EXPECT_GT(registry.counter_value("search.rounds_replayed"), replayed0);
}

// ------------------------------------------------------- Decisions class

TEST(Decisions, FlatVectorKeepsMapSurface) {
  sim::Decisions decisions;
  EXPECT_TRUE(decisions.empty());
  decisions[3] = Value::of(30);
  decisions[1] = Value::of(10);
  decisions[2] = Value::of(20);
  decisions[1] = Value::of(11);  // upsert overwrites

  EXPECT_EQ(decisions.size(), 3u);
  EXPECT_EQ(decisions.at(1), Value::of(11));
  EXPECT_TRUE(decisions.contains(2));
  EXPECT_EQ(decisions.find(9), nullptr);

  // Iteration is sorted by node id regardless of insertion order.
  std::vector<NodeId> order;
  for (const auto& [node, value] : decisions) order.push_back(node);
  EXPECT_EQ(order, (std::vector<NodeId>{1, 2, 3}));

  // The one decision container: it converts to no map.
  static_assert(
      !std::is_convertible_v<sim::Decisions, std::map<NodeId, Value>>);
}

}  // namespace
}  // namespace da
