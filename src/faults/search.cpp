#include "faults/search.hpp"

#include <algorithm>

#include "core/byz.hpp"
#include "faults/adversaries.hpp"
#include "faults/canon.hpp"
#include "obs/metrics.hpp"
#include "sim/round_engine.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace da::faults {

std::vector<NamedAdversaryFactory> standard_family(std::uint64_t seed) {
  std::vector<NamedAdversaryFactory> family;

  family.push_back({"silent", [](const ScenarioSpec&) { return silent(); }});
  family.push_back(
      {"default_spammer",
       [](const ScenarioSpec&) { return default_spammer(); }});
  family.push_back({"constant_liar(v+1)", [](const ScenarioSpec& s) {
                      return constant_liar(Value::of(s.sender_value.raw() + 1));
                    }});
  family.push_back({"constant_liar(v)", [](const ScenarioSpec& s) {
                      return constant_liar(s.sender_value);
                    }});
  family.push_back({"equivocator(v,v+1)", [](const ScenarioSpec& s) {
                      return equivocator(s.sender_value,
                                         Value::of(s.sender_value.raw() + 1));
                    }});
  family.push_back({"equivocator(v+1,v+2)", [](const ScenarioSpec& s) {
                      return equivocator(Value::of(s.sender_value.raw() + 1),
                                         Value::of(s.sender_value.raw() + 2));
                    }});
  family.push_back({"equivocator(v+1,Vd)", [](const ScenarioSpec& s) {
                      return equivocator(Value::of(s.sender_value.raw() + 1),
                                         Value::def());
                    }});
  family.push_back({"pivot_equivocator(mid)", [](const ScenarioSpec& s) {
                      return pivot_equivocator(
                          s.sender_value, Value::of(s.sender_value.raw() + 1),
                          s.config.n / 2);
                    }});
  family.push_back({"targeted_split(low half)", [](const ScenarioSpec& s) {
                      std::vector<NodeId> target;
                      for (NodeId id = 0; id < s.config.n / 2; ++id) {
                        target.push_back(id);
                      }
                      return targeted_split(std::move(target),
                                            Value::of(s.sender_value.raw() + 1));
                    }});
  family.push_back(
      {"crash_after(0)", [](const ScenarioSpec&) { return crash_after(0); }});
  family.push_back(
      {"crash_after(1)", [](const ScenarioSpec&) { return crash_after(1); }});
  for (int k = 0; k < 3; ++k) {
    family.push_back(
        {"random_noise#" + std::to_string(k),
         [seed, k](const ScenarioSpec& s) {
           return random_noise(mix64(seed, static_cast<std::uint64_t>(k)),
                               s.sender_value.raw() - 2,
                               s.sender_value.raw() + 2, 0.25);
         }});
  }
  return family;
}

std::uint64_t search_space_size(const Config& config,
                                const SearchOptions& options) {
  const int max_f = options.max_f < 0 ? config.u : options.max_f;
  const std::uint64_t senders =
      options.all_senders ? static_cast<std::uint64_t>(config.n) : 1;
  const std::uint64_t advs = standard_family(options.seed).size();
  std::uint64_t subsets = 0;
  for (int f = 0; f <= max_f; ++f) {
    // canon's overflow-checked binomial: a runaway (n, max_f) request
    // trips a contract instead of silently wrapping the space size.
    subsets += binomial(static_cast<std::uint64_t>(config.n),
                        static_cast<std::uint64_t>(f)) +
               static_cast<std::uint64_t>(options.random_trials);
  }
  return senders * advs * subsets;
}

namespace {

/// One scenario ordinal of the flattened search space. Exhaustive entries
/// carry their spec; random probes carry (sender, f) and materialize the
/// spec from an ordinal-derived RNG stream inside the visitor, so the
/// probed scenarios are a pure function of (seed, ordinal) — identical
/// for every thread count.
struct ScenarioEntry {
  ScenarioSpec spec;
  bool random = false;
  NodeId sender = 0;
  int f = 0;
};

/// Scenario ordinals are coarse units (each runs a whole adversary
/// family), so shards are small to give the pool's threads enough pieces
/// to balance. Constant, never derived from the job count.
constexpr std::uint64_t kScenariosPerShard = 16;

// Checkpoint-engine accounting (shared by name with behavior_search.cpp:
// the registry interns counters, so both files write the same metrics).
const obs::Counter& checkpoints_counter() {
  static const obs::Counter c("search.checkpoints");
  return c;
}
const obs::Counter& forks_counter() {
  static const obs::Counter c("search.forks");
  return c;
}
const obs::Counter& rounds_replayed_counter() {
  static const obs::Counter c("search.rounds_replayed");
  return c;
}
const obs::Counter& rounds_skipped_counter() {
  static const obs::Counter c("search.rounds_skipped");
  return c;
}

}  // namespace

std::optional<Violation> search_violation(
    const Config& config, const SearchOptions& options,
    const sweep::SweepOptions& sweep_options, sweep::SweepStats* stats) {
  DA_EXPECTS(config.valid());
  const int max_f = options.max_f < 0 ? config.u : options.max_f;
  const auto family = standard_family(options.seed);

  // Flatten the serial scan order: sender-major, fault count ascending,
  // exhaustive subsets (lexicographic) before the random probes.
  std::vector<NodeId> senders{0};
  if (options.all_senders) {
    senders.clear();
    for (NodeId s = 0; s < config.n; ++s) senders.push_back(s);
  }
  std::vector<ScenarioEntry> entries;
  for (NodeId sender : senders) {
    for (int f = 0; f <= max_f; ++f) {
      for_each_subset(config.n, f, [&](const std::vector<NodeId>& faulty) {
        ScenarioEntry entry;
        entry.spec.config = config;
        entry.spec.sender = sender;
        entry.spec.sender_value = Value::of(7);
        entry.spec.faulty = faulty;
        entries.push_back(std::move(entry));
      });
      for (int t = 0; t < options.random_trials; ++t) {
        ScenarioEntry entry;
        entry.random = true;
        entry.sender = sender;
        entry.f = f;
        entries.push_back(std::move(entry));
      }
    }
  }

  const sweep::ShardPlan plan =
      sweep::ShardPlan::even(entries.size(), kScenariosPerShard);
  std::vector<std::optional<Violation>> candidates(plan.shard_count());
  const auto visitor = [&](std::uint64_t ordinal, std::size_t shard,
                           Rng&) -> sweep::Visit {
    const ScenarioEntry& entry = entries[ordinal];
    ScenarioSpec spec = entry.spec;
    if (entry.random) {
      Rng trial_rng(mix64(mix64(options.seed, 0xda), ordinal));
      spec.config = config;
      spec.sender = entry.sender;
      spec.sender_value = Value::of(trial_rng.range(1, 100));
      const std::vector<int> subset = trial_rng.subset(config.n, entry.f);
      spec.faulty.assign(subset.begin(), subset.end());
    }
    sweep::Visit visit;
    visit.executions = 0;
    // The adversary only acts at dispatch time, and no family adversary
    // fabricates, so every execution of this (sender, subset) scenario
    // shares an adversary-independent prefix — process construction plus,
    // when the sender is honest, all of round 0 (the only round-0 traffic
    // is the honest sender's broadcast). Snapshot that prefix once and
    // fork the rest per family member, which is byte-equivalent to running
    // each member from scratch (docs/SEARCH.md, "Checkpoint engine";
    // tests/test_fork_engine.cpp holds it to a scratch reference).
    static const obs::Counter byz_executions("protocol.byz.executions");
    static const obs::Counter byz_messages("protocol.byz.messages_sent");
    spec.validate();
    sim::HonestAdversary honest;
    sim::RunOptions run_options;
    run_options.faulty = spec.faulty;
    run_options.adversary = &honest;
    sim::RoundEngine engine(
        core::make_byz_processes(config, spec.sender, spec.sender_value),
        run_options);
    engine.begin();
    int prefix_rounds = 0;
    if (!spec.sender_faulty()) {
      engine.dispatch_pending();
      engine.process_round();
      prefix_rounds = 1;
    }
    const sim::RoundEngine::Snapshot prefix = engine.snapshot();
    checkpoints_counter().add();
    rounds_replayed_counter().add(static_cast<std::uint64_t>(prefix_rounds));
    const int suffix_rounds = engine.total_rounds() - prefix_rounds;
    sim::RunResult result;
    bool first = true;
    for (const auto& factory : family) {
      // With no faulty nodes every adversary is a no-op: run "silent" only.
      if (spec.f() == 0 && factory.name != "silent") continue;
      auto adversary = factory.make(spec);
      engine.set_adversary(adversary.get());
      if (!first) {
        engine.restore(prefix);
        forks_counter().add();
        rounds_skipped_counter().add(
            static_cast<std::uint64_t>(prefix_rounds));
      }
      first = false;
      while (!engine.done()) {
        engine.dispatch_pending();
        engine.process_round();
      }
      rounds_replayed_counter().add(static_cast<std::uint64_t>(suffix_rounds));
      ++visit.executions;
      byz_executions.add();
      engine.finish_into(result);
      byz_messages.add(result.messages_sent);
      const ConditionReport report = check_conditions(spec, result.decisions);
      if (!report.satisfied) {
        candidates[shard] = Violation{spec, factory.name, report};
        visit.hit = true;
        break;
      }
    }
    visit.weight = visit.executions;  // no orbit reduction here
    return visit;
  };

  const sweep::SweepResult result =
      sweep::run_sweep(plan, sweep_options, visitor);
  if (stats != nullptr) *stats = result.stats;
  if (!result.first_hit_shard.has_value()) return std::nullopt;
  return candidates[*result.first_hit_shard];
}

std::optional<Violation> search_violation(const Config& config,
                                          const SearchOptions& options) {
  return search_violation(config, options, sweep::SweepOptions{});
}

}  // namespace da::faults
