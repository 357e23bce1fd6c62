// Randomized differential fuzzing across the whole stack, driven by the
// parallel scenario-sweep engine (src/sweep/): each fuzz iteration is one
// sweep ordinal whose scenario is a pure function of (seed, ordinal), so
// the exact same draws are replayed for any --jobs value.
//
//  1. random depth-2 behaviour tables (the adversary-complete alphabet,
//     sampled instead of enumerated) against random feasible configs —
//     conditions must hold at every draw;
//  2. random behaviours replayed on all three runtimes — decisions must
//     match bit-for-bit;
//  3. random *malformed-traffic* storms (fabricated garbage metadata) —
//     receivers must be unaffected.

//
// A fixed regression corpus (tests/corpus/fuzz_*.txt) replays first: any
// (seed, ordinal) pair a randomized sweep ever flagged gets appended there
// and is re-checked verbatim on every run thereafter.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "event/event_runner.hpp"
#include "faults/adversaries.hpp"
#include "rt/threaded_runner.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"

namespace da {
namespace {

/// Samples a random per-(from,to,path) behaviour over the canonical
/// alphabet {sender value, w1, w2, V_d, omit} — works at any depth.
class RandomTableAdversary final : public sim::Adversary {
 public:
  RandomTableAdversary(std::uint64_t seed, Value sender_value)
      : seed_(seed), sender_value_(sender_value) {}

  std::optional<sim::Message> corrupt(const sim::Message& msg) override {
    std::uint64_t h = mix64(seed_, static_cast<std::uint64_t>(msg.from));
    h = mix64(h, static_cast<std::uint64_t>(msg.to));
    h = mix64(h, msg.path.hash());
    switch (h % 5) {
      case 0: return std::nullopt;  // omit
      case 1: {
        sim::Message out = msg;
        out.value = sender_value_;
        return out;
      }
      case 2: {
        sim::Message out = msg;
        out.value = Value::of(500001);
        return out;
      }
      case 3: {
        sim::Message out = msg;
        out.value = Value::of(500002);
        return out;
      }
      default: {
        sim::Message out = msg;
        out.value = Value::def();
        return out;
      }
    }
  }

 private:
  std::uint64_t seed_;
  Value sender_value_;
};

/// Injects structurally garbage messages every round (bad rounds, bogus
/// paths, foreign participants, self-paths); validation must shrug it off.
class GarbageStorm final : public sim::Adversary {
 public:
  explicit GarbageStorm(std::uint64_t seed) : seed_(seed) {}

  std::optional<sim::Message> corrupt(const sim::Message& msg) override {
    return msg;  // behave, then spam
  }

  std::vector<sim::Message> fabricate(NodeId node, int round) override {
    Rng rng(mix64(seed_, mix64(static_cast<std::uint64_t>(node),
                               static_cast<std::uint64_t>(round))));
    std::vector<sim::Message> out;
    for (int k = 0; k < 6; ++k) {
      sim::Message msg;
      msg.from = node;
      msg.to = static_cast<NodeId>(rng.below(7));
      msg.round = round;
      const int shape = static_cast<int>(rng.below(4));
      switch (shape) {
        case 0:  // wrong path length for the round
          msg.path = Path{0, node, 99};
          break;
        case 1:  // path not ending at the transmitter
          msg.path = Path{0};
          break;
        case 2:  // repeated nodes
          msg.path = Path{0, node};
          if (round >= 1) msg.path = Path{node, node};
          break;
        default:  // foreign participant
          msg.path = Path{42, node};
          break;
      }
      msg.value = Value::of(rng.range(-5, 5));
      out.push_back(msg);
    }
    return out;
  }

 private:
  std::uint64_t seed_;
};

Config random_feasible_config(Rng& rng) {
  const int m = static_cast<int>(rng.below(3));             // 0..2
  const int u = std::max(1, m + static_cast<int>(rng.below(4)));  // >= 1
  const int slack = static_cast<int>(rng.below(3));         // 0..2 extras
  return Config{.n = 2 * m + u + 1 + slack, .m = m, .u = u};
}

/// Draws the scenario for one fuzz ordinal. The stream is derived from
/// (seed, ordinal) alone, so a parallel sweep replays exactly the serial
/// draws no matter how shards land on workers.
struct FuzzDraw {
  ScenarioSpec spec;
  std::uint64_t behaviour_seed = 0;
  bool skipped = false;
};

FuzzDraw draw_scenario(std::uint64_t seed, std::uint64_t ordinal, int max_n) {
  Rng rng(mix64(seed, ordinal));
  FuzzDraw draw;
  const Config config = random_feasible_config(rng);
  if (config.n > max_n) {  // keep message volume sane
    draw.skipped = true;
    return draw;
  }
  draw.spec.config = config;
  draw.spec.sender =
      static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(config.n)));
  draw.spec.sender_value = Value::of(rng.range(1, 1000));
  const int f = static_cast<int>(rng.below(
      static_cast<std::uint64_t>(config.u) + 1));
  const auto subset = rng.subset(config.n, f);
  draw.spec.faulty.assign(subset.begin(), subset.end());
  draw.behaviour_seed = rng.next();
  return draw;
}

/// One ordinal of the conditions fuzz, shared verbatim by the randomized
/// sweep and the regression-corpus replay. Returns true on a violation
/// ("hit"), with `failure` describing it; `executed` is false for skipped
/// (oversized) draws.
bool conditions_case(std::uint64_t seed, std::uint64_t ordinal,
                     std::string* failure, bool* executed) {
  FuzzDraw draw = draw_scenario(seed, ordinal, 10);
  *executed = !draw.skipped;
  if (draw.skipped) return false;
  const DegradableAgreement protocol(draw.spec.config);
  RandomTableAdversary adversary(draw.behaviour_seed, draw.spec.sender_value);
  const ConditionReport report = protocol.run_and_check(draw.spec, &adversary);
  if (!report.satisfied || !report.corollary_m_plus_1) {
    *failure = "iter " + std::to_string(ordinal) + ": " +
               draw.spec.to_string() + " -> " + report.detail;
    return true;
  }
  return false;
}

/// One ordinal of the cross-runtime fuzz: the same behaviour replayed on
/// the sim, threaded and event runtimes must decide identically.
bool runtimes_case(std::uint64_t seed, std::uint64_t ordinal,
                   std::string* failure, bool* executed) {
  FuzzDraw draw = draw_scenario(seed, ordinal, 9);
  *executed = !draw.skipped;
  if (draw.skipped) return false;
  const ScenarioSpec& spec = draw.spec;
  const DegradableAgreement protocol(spec.config);

  RandomTableAdversary a1(draw.behaviour_seed, spec.sender_value);
  const sim::RunResult sim_out = protocol.run(spec, &a1);

  RandomTableAdversary a2(draw.behaviour_seed, spec.sender_value);
  const sim::RunResult thr_out = protocol.run_threaded(spec, &a2);
  if (sim_out.decisions != thr_out.decisions) {
    *failure = "threaded mismatch: " + spec.to_string();
    return true;
  }

  RandomTableAdversary a3(draw.behaviour_seed, spec.sender_value);
  sim::RunOptions run_options;
  run_options.faulty = spec.faulty;
  run_options.adversary = &a3;
  event::EventRunner event_runner(
      core::make_byz_processes(spec.config, spec.sender, spec.sender_value),
      std::move(run_options), event::TimingModel{},
      event::perfect_clocks(spec.config.n));
  if (sim_out.decisions != event_runner.run().base.decisions) {
    *failure = "event mismatch: " + spec.to_string();
    return true;
  }
  return false;
}

/// Replays `corpus_file` (lines of `seed ordinal`, # comments) through one
/// of the case functions above. Corpus draws are checked before any
/// randomized exploration runs — see the corpus tests below, which are
/// defined (and therefore run) first.
void replay_corpus(const std::string& corpus_file,
                   bool (*fuzz_case)(std::uint64_t, std::uint64_t,
                                     std::string*, bool*)) {
  std::ifstream in(std::string(DA_TEST_CORPUS_DIR) + "/" + corpus_file);
  ASSERT_TRUE(in.is_open()) << "missing tests/corpus/" << corpus_file;
  std::string line;
  int replayed = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::uint64_t ordinal = 0;
    ASSERT_TRUE(fields >> seed >> ordinal) << "bad corpus line: " << line;
    std::string failure;
    bool executed = false;
    EXPECT_FALSE(fuzz_case(seed, ordinal, &failure, &executed))
        << corpus_file << " " << seed << " " << ordinal << ": " << failure;
    ++replayed;
  }
  EXPECT_GE(replayed, 4) << corpus_file << " corpus is unexpectedly small";
}

TEST(Fuzz, CorpusConditionsReplay) {
  replay_corpus("fuzz_conditions.txt", conditions_case);
}

TEST(Fuzz, CorpusRuntimesReplay) {
  replay_corpus("fuzz_runtimes.txt", runtimes_case);
}

TEST(Fuzz, RandomBehavioursNeverViolateConditions) {
  constexpr std::uint64_t kIterations = 120;
  const sweep::ShardPlan plan = sweep::ShardPlan::even(kIterations, 8);
  std::vector<std::string> failures(plan.shard_count());
  sweep::SweepOptions options;
  options.jobs = 2;
  const auto result = sweep::run_sweep(
      plan, options,
      [&](std::uint64_t ordinal, std::size_t shard, Rng&) -> sweep::Visit {
        bool executed = false;
        const bool hit =
            conditions_case(0xF00D, ordinal, &failures[shard], &executed);
        return {.hit = hit, .executions = executed ? 1u : 0u};
      });
  EXPECT_FALSE(result.first_hit.has_value())
      << failures[*result.first_hit_shard];
  EXPECT_GT(result.stats.executions, kIterations / 2);  // few skips
}

TEST(Fuzz, RandomBehavioursMatchAcrossRuntimes) {
  constexpr std::uint64_t kIterations = 25;
  const sweep::ShardPlan plan = sweep::ShardPlan::even(kIterations, 4);
  std::vector<std::string> failures(plan.shard_count());
  sweep::SweepOptions options;
  options.jobs = 2;
  const auto result = sweep::run_sweep(
      plan, options,
      [&](std::uint64_t ordinal, std::size_t shard, Rng&) -> sweep::Visit {
        bool executed = false;
        const bool hit =
            runtimes_case(0xBEEF, ordinal, &failures[shard], &executed);
        return {.hit = hit, .executions = executed ? 1u : 0u};
      });
  EXPECT_FALSE(result.first_hit.has_value())
      << failures[*result.first_hit_shard];
}

TEST(Fuzz, GarbageStormsAreHarmless) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const DegradableAgreement protocol(config);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ScenarioSpec spec;
    spec.config = config;
    spec.sender = 0;
    spec.sender_value = Value::of(21);
    spec.faulty = {2, 5};

    GarbageStorm storm(seed);
    const sim::RunResult stormy = protocol.run(spec, &storm);

    // The storm adversary relays honestly, so the run must be identical
    // to a fault-free one: every garbage message was rejected.
    ScenarioSpec clean = spec;
    clean.faulty.clear();
    const sim::RunResult quiet = protocol.run(clean, nullptr);
    EXPECT_EQ(stormy.decisions, quiet.decisions) << "seed " << seed;
  }
}

}  // namespace
}  // namespace da
