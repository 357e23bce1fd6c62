// The fault-injection layer (src/inject/) and its differential-replay
// checker: FaultPlan parsing and determinism, InjectionNetwork semantics,
// and the headline property — the same (ScenarioSpec, FaultPlan, seed)
// triple produces byte-identical canonical artifacts and identical
// D.1-D.4 verdicts on the sim, threaded and event runtimes, for any
// sweep --jobs value. A mutation check (-DDA_MUTATION_BUG=ON) asserts the
// harness actually flags a planted protocol bug.

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "inject/differ.hpp"
#include "inject/fault_plan.hpp"
#include "inject/injection_network.hpp"
#include "sim/message.hpp"
#include "util/rng.hpp"

namespace da::inject {
namespace {

sim::Message msg(NodeId from, NodeId to, int round) {
  sim::Message m;
  m.from = from;
  m.to = to;
  m.round = round;
  m.path = Path{from};
  m.value = Value::of(7);
  return m;
}

/// What the link did to one send: its copies and their holdback.
struct Transit {
  std::vector<sim::Message> copies;
  double holdback = 0.0;
};

Transit transit(InjectionNetwork& network, const sim::Message& m) {
  Transit t;
  t.holdback = network.transit(m, t.copies);
  return t;
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, ParseSerializeRoundTrip) {
  const std::string text =
      "# example plan\n"
      "seed 42\n"
      "drop from=1 to=3 round=2\n"
      "dup from=* to=2 round=* copies=3\n"
      "delay from=0 to=* round=1\n"
      "crash node=3 down=1 restart=3\n"
      "rates drop=0.05 dup=0.02 delay=0.1\n";
  const auto plan = FaultPlan::parse(text);
  ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
  EXPECT_EQ(plan->seed, 42u);
  ASSERT_EQ(plan->rules.size(), 3u);
  EXPECT_EQ(plan->rules[0].kind, FaultKind::kDrop);
  EXPECT_EQ(plan->rules[1].copies, 3);
  EXPECT_EQ(plan->rules[1].from, kNoNode);
  ASSERT_EQ(plan->crashes.size(), 1u);
  EXPECT_EQ(plan->crashes[0].node, 3);
  EXPECT_DOUBLE_EQ(plan->rates.drop, 0.05);

  // serialize() is a canonical fixed point: parse(serialize(p)) == p and
  // serialize(parse(s)) == serialize(p).
  const std::string canon = plan->serialize();
  const auto reparsed = FaultPlan::parse(canon);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error().to_string();
  EXPECT_EQ(*reparsed, *plan);
  EXPECT_EQ(reparsed->serialize(), canon);

  // Seeded plans carry full-precision rates; they must survive too.
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const FaultPlan seeded = FaultPlan::from_seed(seed, 5, 3);
    const auto back = FaultPlan::parse(seeded.serialize());
    ASSERT_TRUE(back.has_value()) << back.error().to_string();
    ASSERT_EQ(*back, seeded) << "seed " << seed << "\n" << seeded.serialize();
    ASSERT_EQ(back->serialize(), seeded.serialize());
  }
}

TEST(FaultPlan, ParseRejectsMalformedLines) {
  const auto error_of = [](const char* text) {
    const auto plan = FaultPlan::parse(text);
    EXPECT_FALSE(plan.has_value()) << text;
    return plan ? ParseError{} : plan.error();
  };
  const ParseError bogus = error_of("seed 1\nbogus directive\n");
  EXPECT_EQ(bogus.kind, ParseKind::kUnknownName);
  EXPECT_EQ(bogus.to_string(),
            "line 2, column 1: unknown-name: unknown directive `bogus`");
  EXPECT_EQ(error_of("drop from=x\n").kind, ParseKind::kBadValue);
  EXPECT_EQ(error_of("drop  to=1 from=x\n").column, 12u);
  EXPECT_EQ(error_of("dup from=0 copies=1\n").kind, ParseKind::kBadValue);
  EXPECT_EQ(error_of("drop copies=3\n").kind, ParseKind::kUnknownName);
  EXPECT_EQ(error_of("crash down=2\n").kind, ParseKind::kBadValue);
  EXPECT_EQ(error_of("rates drop=1.5\n").kind, ParseKind::kBadValue);
  EXPECT_EQ(error_of("rates drop=nan\n").kind, ParseKind::kBadValue);
  EXPECT_EQ(error_of("seed\n").kind, ParseKind::kBadValue);
  EXPECT_EQ(error_of("seed 1 2\n").column, 8u);
  EXPECT_EQ(error_of("seed +1\n").kind, ParseKind::kBadValue);
  EXPECT_EQ(error_of("drop from\n").kind, ParseKind::kSyntax);
  EXPECT_EQ(error_of("drop round=2x\n").kind, ParseKind::kBadValue);

  // The documented leniency (docs/INJECTION.md): spacing, comments,
  // field order and number spellings, all read to the same plan.
  const auto lenient = FaultPlan::parse(
      "\t# comment\n\nseed 01\ndrop  round=2\tto=3 from=01 \n"
      "rates delay=.1 drop=5e-2");
  ASSERT_TRUE(lenient.has_value()) << lenient.error().to_string();
  EXPECT_EQ(lenient->serialize(),
            "seed 1\ndrop from=1 to=3 round=2\n"
            "rates drop=0.05 dup=0 delay=0.1\n");
}

TEST(FaultPlan, RuleMatchingHonoursWildcards) {
  LinkRule rule;  // all wildcards
  EXPECT_TRUE(rule.matches(msg(0, 1, 0)));
  rule.from = 2;
  EXPECT_FALSE(rule.matches(msg(0, 1, 0)));
  EXPECT_TRUE(rule.matches(msg(2, 1, 0)));
  rule.round = 1;
  EXPECT_FALSE(rule.matches(msg(2, 1, 0)));
  EXPECT_TRUE(rule.matches(msg(2, 1, 1)));
}

TEST(FaultPlan, CrashWindowCoversHalfOpenRange) {
  CrashWindow w;
  w.node = 2;
  w.down_from = 1;
  w.restart = 3;
  FaultPlan plan;
  plan.crashes.push_back(w);
  EXPECT_FALSE(plan.crashed(2, 0));
  EXPECT_TRUE(plan.crashed(2, 1));
  EXPECT_TRUE(plan.crashed(2, 2));
  EXPECT_FALSE(plan.crashed(2, 3));  // restarted
  EXPECT_FALSE(plan.crashed(1, 1));  // other node
  plan.crashes[0].restart = -1;      // never restarts
  EXPECT_TRUE(plan.crashed(2, 100));
}

TEST(FaultPlan, ValidateCatchesBadPlans) {
  FaultPlan plan;
  EXPECT_FALSE(plan.validate(4).has_value());
  plan.rules.push_back(LinkRule{.from = 7});
  EXPECT_TRUE(plan.validate(4).has_value());
  plan.rules.clear();
  plan.crashes.push_back(CrashWindow{.node = 0, .down_from = 2, .restart = 1});
  EXPECT_TRUE(plan.validate(4).has_value());
  plan.crashes.clear();
  plan.rates.delay = 1.5;
  EXPECT_TRUE(plan.validate(4).has_value());
}

TEST(FaultPlan, FromSeedIsDeterministicAndValid) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const FaultPlan a = FaultPlan::from_seed(seed, 5, 3);
    const FaultPlan b = FaultPlan::from_seed(seed, 5, 3);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.validate(5).has_value()) << *a.validate(5);
    EXPECT_TRUE(a.active());
  }
  // Different seeds give different plans (overwhelmingly).
  EXPECT_NE(FaultPlan::from_seed(1, 5, 3), FaultPlan::from_seed(2, 5, 3));
}

TEST(FaultPlan, InactivePlanIsInert) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.active());
  InjectionNetwork network(plan);
  for (int r = 0; r < 3; ++r) {
    for (NodeId from = 0; from < 4; ++from) {
      for (NodeId to = 0; to < 4; ++to) {
        const Transit t = transit(network, msg(from, to, r));
        ASSERT_EQ(t.copies.size(), 1u);
        EXPECT_EQ(t.copies[0], msg(from, to, r));
        EXPECT_EQ(t.holdback, 0.0);
      }
    }
  }
  EXPECT_EQ(network.stats().dropped, 0u);
  EXPECT_EQ(network.stats().duplicated, 0u);
  EXPECT_EQ(network.stats().delayed, 0u);
  EXPECT_EQ(network.stats().crash_dropped, 0u);
  EXPECT_EQ(network.stats().examined, 48u);
}

// --------------------------------------------------------- InjectionNetwork

TEST(InjectionNetwork, ScriptedRulesApplyFirstMatch) {
  FaultPlan plan;
  plan.rules.push_back(
      LinkRule{.from = 0, .to = 1, .round = 0, .kind = FaultKind::kDrop});
  plan.rules.push_back(LinkRule{
      .from = 0, .to = kNoNode, .round = -1, .kind = FaultKind::kDuplicate,
      .copies = 3});
  InjectionNetwork network(plan);

  // First rule matches (0 -> 1, round 0): dropped, even though the second
  // rule would duplicate it.
  EXPECT_TRUE(transit(network, msg(0, 1, 0)).copies.empty());
  // Only the second matches 0 -> 2: three copies.
  EXPECT_EQ(transit(network, msg(0, 2, 0)).copies.size(), 3u);
  // Neither matches 1 -> 0: passthrough.
  EXPECT_EQ(transit(network, msg(1, 0, 0)).copies.size(), 1u);
  EXPECT_EQ(network.stats().dropped, 1u);
  EXPECT_EQ(network.stats().duplicated, 2u);
}

TEST(InjectionNetwork, CrashWindowDropsBothDirections) {
  FaultPlan plan;
  plan.crashes.push_back(CrashWindow{.node = 2, .down_from = 1, .restart = 2});
  InjectionNetwork network(plan);
  EXPECT_FALSE(transit(network, msg(2, 0, 0)).copies.empty());  // before
  EXPECT_TRUE(transit(network, msg(2, 0, 1)).copies.empty());   // down, sends
  EXPECT_TRUE(transit(network, msg(0, 2, 1)).copies.empty());   // down, recvs
  EXPECT_FALSE(transit(network, msg(2, 0, 2)).copies.empty());  // restarted
  EXPECT_EQ(network.stats().crash_dropped, 2u);
}

TEST(InjectionNetwork, DecisionsArePureFunctionsOfMessageIdentity) {
  const FaultPlan plan = FaultPlan::from_seed(7, 5, 4);
  InjectionNetwork a(plan);
  InjectionNetwork b(plan);
  // Visit the same message space in different orders: per-message results
  // must agree (no hidden RNG stream).
  for (int r = 0; r < 4; ++r) {
    for (NodeId from = 0; from < 5; ++from) {
      for (NodeId to = 0; to < 5; ++to) {
        const Transit fwd = transit(a, msg(from, to, r));
        const Transit again = transit(b, msg(from, to, r));
        EXPECT_EQ(fwd.copies, again.copies);
        EXPECT_EQ(fwd.holdback, again.holdback);
      }
    }
  }
  EXPECT_EQ(a.stats(), b.stats());
  // Replaying the identical traffic leaves identical stats.
  InjectionNetwork c(plan);
  for (int r = 3; r >= 0; --r) {
    for (NodeId from = 4; from >= 0; --from) {
      for (NodeId to = 4; to >= 0; --to) {
        transit(c, msg(from, to, r));
      }
    }
  }
  EXPECT_EQ(a.stats(), c.stats());
}

TEST(InjectionNetwork, HoldbackStaysInWindow) {
  FaultPlan plan;
  plan.rates.delay = 1.0;  // every message delayed
  InjectionNetwork network(plan);
  for (NodeId from = 0; from < 6; ++from) {
    for (NodeId to = 0; to < 6; ++to) {
      const double frac = transit(network, msg(from, to, 1)).holdback;
      EXPECT_GT(frac, 0.0);
      EXPECT_LT(frac, 1.0);  // always lands inside the round window
    }
  }
}

TEST(InjectionNetwork, TransitAppendsAfterWhatTheBufferHolds) {
  FaultPlan plan;
  plan.rules.push_back(LinkRule{
      .from = 0, .to = kNoNode, .round = -1, .kind = FaultKind::kDuplicate,
      .copies = 3});
  plan.rules.push_back(
      LinkRule{.from = 1, .to = kNoNode, .round = -1, .kind = FaultKind::kDrop});
  InjectionNetwork network(plan);
  std::vector<sim::Message> out{msg(4, 5, 0)};
  network.transit(msg(0, 2, 0), out);  // three copies, appended
  network.transit(msg(1, 2, 0), out);  // dropped: appends nothing
  network.transit(msg(2, 3, 0), out);  // one copy
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], msg(4, 5, 0));  // what the buffer held stays first
  for (std::size_t i = 1; i <= 3; ++i) EXPECT_EQ(out[i], msg(0, 2, 0));
  EXPECT_EQ(out[4], msg(2, 3, 0));
}

// ------------------------------------------------------------- Differential

DifferentialCase byz_case(FaultPlan plan, AdversaryKind adversary) {
  DifferentialCase c;
  c.protocol = Protocol::kByz;
  c.spec.config = Config{4, 1, 1};
  c.spec.sender = 0;
  c.spec.sender_value = Value::of(7);
  c.spec.faulty = {2};
  c.plan = std::move(plan);
  c.adversary_seed = 11;
  c.adversary = adversary;
  return c;
}

TEST(Differential, CleanByzCaseAgreesEverywhere) {
  const DifferentialReport report =
      run_differential(byz_case(FaultPlan{}, AdversaryKind::kLiar));
  EXPECT_TRUE(report.ok()) << report.detail;
  // f=1 <= m, sender fault-free, reliable links: D.1 must hold.
  EXPECT_TRUE(report.conditions_satisfied) << report.sim.verdict;
  EXPECT_EQ(report.sim.verdict.substr(0, 3), "D.1");
  EXPECT_GT(report.sim.messages_sent, 0u);
}

TEST(Differential, ScriptedDropAgreesEverywhere) {
  FaultPlan plan;
  plan.rules.push_back(
      LinkRule{.from = 0, .to = 3, .round = 0, .kind = FaultKind::kDrop});
  const DifferentialReport report =
      run_differential(byz_case(std::move(plan), AdversaryKind::kLiar));
  EXPECT_TRUE(report.ok()) << report.detail;
}

TEST(Differential, DuplicationAgreesEverywhere) {
  FaultPlan plan;
  plan.rules.push_back(LinkRule{.from = kNoNode, .to = kNoNode, .round = -1,
                                .kind = FaultKind::kDuplicate, .copies = 3});
  const DifferentialReport report =
      run_differential(byz_case(std::move(plan), AdversaryKind::kLiar));
  EXPECT_TRUE(report.ok()) << report.detail;
  // EIG processes dedup by path, so pure duplication must not change the
  // verdict relative to the clean run.
  const DifferentialReport clean =
      run_differential(byz_case(FaultPlan{}, AdversaryKind::kLiar));
  EXPECT_EQ(report.sim.verdict, clean.sim.verdict);
  EXPECT_GT(report.sim.messages_delivered, clean.sim.messages_delivered);
}

TEST(Differential, DelayAgreesEverywhere) {
  FaultPlan plan;
  plan.rates.delay = 0.8;
  plan.seed = 99;
  const DifferentialReport report =
      run_differential(byz_case(std::move(plan), AdversaryKind::kEquivocator));
  EXPECT_TRUE(report.ok()) << report.detail;
  // Delay never pushes a message out of the round window, so the verdict
  // matches the clean run's bit for bit.
  const DifferentialReport clean =
      run_differential(byz_case(FaultPlan{}, AdversaryKind::kEquivocator));
  EXPECT_EQ(report.sim.verdict, clean.sim.verdict);
}

TEST(Differential, CrashRestartAgreesEverywhere) {
  FaultPlan plan;
  plan.crashes.push_back(CrashWindow{.node = 3, .down_from = 1, .restart = 2});
  const DifferentialReport report =
      run_differential(byz_case(std::move(plan), AdversaryKind::kSilent));
  EXPECT_TRUE(report.ok()) << report.detail;
  EXPECT_GT(report.sim.artifact.find("crash_dropped"), 0u);
}

TEST(Differential, DrawCaseIsAPureFunction) {
  for (std::uint64_t ordinal = 0; ordinal < 12; ++ordinal) {
    const DifferentialCase a = draw_case(17, ordinal);
    const DifferentialCase b = draw_case(17, ordinal);
    EXPECT_EQ(a.to_string(), b.to_string());
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.adversary_seed, b.adversary_seed);
    ASSERT_TRUE(a.spec.config.valid()) << a.to_string();
    EXPECT_FALSE(a.plan.validate(a.spec.config.n).has_value());
  }
}

TEST(Differential, DrawCaseSpansAllProtocols) {
  std::set<std::string> protocols;
  for (std::uint64_t ordinal = 0; ordinal < 6; ++ordinal) {
    protocols.insert(to_string(draw_case(3, ordinal).protocol));
  }
  EXPECT_EQ(protocols.size(), 6u);
}

// The acceptance sweep: >= 25 (spec, plan, seed) triples spanning all six
// protocols, byte-identical artifacts and identical verdicts across the
// three runtimes, with the jobs=1 and jobs=8 sweeps agreeing on the
// canonical result. (30 ordinals = 5 full passes over the protocol ring.)
TEST(Differential, SweepThirtyCasesAcrossJobsCounts) {
  constexpr std::uint64_t kSeed = 2026;
  constexpr std::uint64_t kCases = 30;
  const DifferentialSweepResult serial = sweep_differential(kSeed, kCases, 1);
  EXPECT_FALSE(serial.first_mismatch.has_value()) << serial.detail;

  const DifferentialSweepResult parallel =
      sweep_differential(kSeed, kCases, 8);
  EXPECT_EQ(serial.first_mismatch, parallel.first_mismatch) << parallel.detail;
  EXPECT_EQ(serial.executions, parallel.executions);
  EXPECT_EQ(serial.cases, kCases);
}

// Regression corpus: previously interesting (seed, ordinal) pairs replay
// verbatim before any randomized exploration (tests/corpus/differential.txt).
TEST(Differential, CorpusReplays) {
  std::ifstream in(std::string(DA_TEST_CORPUS_DIR) + "/differential.txt");
  ASSERT_TRUE(in.is_open()) << "missing tests/corpus/differential.txt";
  std::string line;
  int replayed = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::uint64_t ordinal = 0;
    ASSERT_TRUE(fields >> seed >> ordinal) << "bad corpus line: " << line;
    const DifferentialCase c = draw_case(seed, ordinal);
    const DifferentialReport report = run_differential(c);
    EXPECT_TRUE(report.ok()) << c.to_string() << ": " << report.detail;
    ++replayed;
  }
  EXPECT_GE(replayed, 6);  // at least one case per protocol
}

// ---------------------------------------------------------- Mutation check
//
// With -DDA_MUTATION_BUG=ON the build plants a known VOTE-threshold bug
// (src/protocols/common/vote.cpp). The harness must catch it: a scenario
// the paper guarantees (f <= m, fault-free sender, reliable links) stops
// satisfying D.1. In a normal build the same scenario must pass — i.e. the
// check fails exactly when the bug is present.

TEST(DifferentialMutation, PlantedVoteBugIsDetected) {
  const DifferentialReport report =
      run_differential(byz_case(FaultPlan{}, AdversaryKind::kLiar));
  // The bug is runtime-independent, so the runtimes still agree...
  EXPECT_TRUE(report.ok()) << report.detail;
#ifdef DA_MUTATION_BUG
  // ...but the weakened threshold lets the liar's echo tie the vote and
  // drag fault-free receivers to V_d: D.1 is violated and the harness
  // reports it.
  EXPECT_FALSE(report.conditions_satisfied) << report.sim.verdict;
#else
  EXPECT_TRUE(report.conditions_satisfied) << report.sim.verdict;
#endif
}

}  // namespace
}  // namespace da::inject
