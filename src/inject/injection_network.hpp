#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "inject/fault_plan.hpp"
#include "obs/json.hpp"
#include "sim/network.hpp"

namespace da::inject {

/// What an InjectionNetwork did to the traffic that passed through it.
/// Counts are pure functions of (plan, traffic), so two runtimes replaying
/// the same scenario under the same plan must report identical stats — the
/// differential checker includes them in its canonical artifact.
struct InjectionStats {
  std::uint64_t examined = 0;     // sends that entered the layer
  std::uint64_t dropped = 0;      // suppressed by a rule or the drop rate
  std::uint64_t duplicated = 0;   // extra copies materialized
  std::uint64_t delayed = 0;      // deliveries held back within the window
  std::uint64_t crash_dropped = 0;  // suppressed by a crash window
  /// Per-rule match tallies, indexed like `FaultPlan::rules` — how often
  /// each scripted rule was the one that decided a message's fate. Span
  /// consumers use this to attribute observed delay/loss to a plan rule.
  std::vector<std::uint64_t> rule_hits{};

  [[nodiscard]] obs::Json to_json() const;

  friend bool operator==(const InjectionStats&, const InjectionStats&) =
      default;
};

/// The fault-injection transport: perturbs traffic per a FaultPlan —
/// scripted per-link drop/duplicate/delay rules, crash-restart windows, and
/// seeded background rates. Every decision derives from the plan seed and
/// the message identity via mix64, never from call order, so the sim,
/// threaded and event runtimes observe byte-identical executions (the
/// property tests/test_differential.cpp machine-checks).
///
/// Thread-safety: every runtime calls the network (and the adversary) from
/// its one dispatching thread — only `on_round` runs on pool workers — so
/// the plain stats counters need no atomics.
class InjectionNetwork final : public sim::NetworkModel {
 public:
  explicit InjectionNetwork(FaultPlan plan);

  /// Decides `msg` once: appends nothing (crash window or drop), one copy
  /// or the duplicates, tallies the stats, and returns the delay fraction.
  double transit(const sim::Message& msg,
                 std::vector<sim::Message>& out) override;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const InjectionStats& stats() const { return stats_; }

  /// Re-seed the plan's decision hashes (e.g. per service instance) without
  /// rebuilding the rule table.
  void reseed(std::uint64_t seed) { plan_.seed = seed; }

  /// Zero the stats, keeping the per-rule tally sized to the plan (and
  /// its storage). Lets a recycled service slot reuse one network across
  /// instances without allocating.
  void reset_stats() {
    std::vector<std::uint64_t> hits = std::move(stats_.rule_hits);
    stats_ = InjectionStats{};
    hits.assign(plan_.rules.size(), 0);
    stats_.rule_hits = std::move(hits);
  }

 private:
  /// The plan's verdict for one message.
  struct Decision {
    bool crash = false;  // crash window drop
    bool drop = false;
    int copies = 1;
    double delay_frac = 0.0;  // 0 = on time
    int rule = -1;  // index of the scripted rule that decided, -1 if none
  };
  [[nodiscard]] Decision decide(const sim::Message& msg) const;

  FaultPlan plan_;
  InjectionStats stats_;
};

}  // namespace da::inject
