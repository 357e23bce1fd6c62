#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/message.hpp"
#include "util/ids.hpp"
#include "util/parse.hpp"

namespace da::inject {

/// What the injection layer does to a matched message.
enum class FaultKind {
  kDrop,       // suppress the delivery (receiver observes absence / V_d)
  kDuplicate,  // deliver `copies` identical copies instead of one
  kDelay,      // deliver late-but-in-window (event runtime); reorders arrivals
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One scripted per-link rule. A field left at its wildcard default
/// (kNoNode / -1) matches anything; the *first* matching rule decides a
/// message's fate, mirroring faults::Rule's first-match discipline.
struct LinkRule {
  NodeId from = kNoNode;  // kNoNode = any sender
  NodeId to = kNoNode;    // kNoNode = any destination
  int round = -1;         // -1 = any round
  FaultKind kind = FaultKind::kDrop;
  int copies = 2;  // kDuplicate only: total delivered copies, >= 2

  [[nodiscard]] bool matches(const sim::Message& msg) const;

  friend bool operator==(const LinkRule&, const LinkRule&) = default;
};

/// A crash-restart window: while `node` is down (rounds in
/// [down_from, restart)), every message it sends *or* receives is dropped.
/// `restart < 0` means the node never comes back. The process object keeps
/// its state across the outage — i.e. a fail-silent crash with
/// state-preserving restart, modelled entirely at the link layer so all
/// three runtimes observe the identical execution.
struct CrashWindow {
  NodeId node = kNoNode;
  int down_from = 0;
  int restart = -1;  // exclusive; < 0 = never restarts

  [[nodiscard]] bool down_at(NodeId id, int round) const {
    return id == node && round >= down_from &&
           (restart < 0 || round < restart);
  }

  friend bool operator==(const CrashWindow&, const CrashWindow&) = default;
};

/// Seeded background perturbation rates, applied per message identity to
/// messages no explicit rule matched. Each probability is evaluated from
/// an independent hash of (plan seed, from, to, round, path), so decisions
/// are pure functions of the message identity — identical under the sim,
/// threaded and event runtimes and for any sweep --jobs value.
struct RandomRates {
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;

  [[nodiscard]] bool any() const {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0;
  }

  friend bool operator==(const RandomRates&, const RandomRates&) = default;
};

/// A deterministic fault-injection plan: explicit scripted rules, crash
/// windows, and seeded background rates. The plan plus its seed fully
/// determine every injection decision; there is no hidden RNG state.
///
/// Text form (parse()/serialize(); see docs/INJECTION.md):
///
///   # comments and blank lines ignored
///   seed 42
///   drop from=1 to=3 round=2
///   dup from=* to=2 round=* copies=3
///   delay from=0 to=* round=1
///   crash node=3 down=1 restart=3
///   rates drop=0.05 dup=0.02 delay=0.10
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<LinkRule> rules;
  std::vector<CrashWindow> crashes;
  RandomRates rates;

  /// True when the plan perturbs anything at all. An inactive plan must be
  /// indistinguishable (and near-free: see bench_inject) from no plan.
  [[nodiscard]] bool active() const {
    return !rules.empty() || !crashes.empty() || rates.any();
  }

  /// True if any crash window has `id` down at `round`.
  [[nodiscard]] bool crashed(NodeId id, int round) const;

  /// Basic well-formedness for an n-node system; returns the first
  /// problem, or nullopt when the plan is sound.
  [[nodiscard]] std::optional<std::string> validate(int n) const;

  /// Canonical text form (rates in their shortest exact spelling);
  /// parse(serialize()) == *this.
  [[nodiscard]] std::string serialize() const;

  /// Parses the text form, with the leniency docs/INJECTION.md lists
  /// (spacing, comments, field order, number spellings); the error names
  /// the first rejected line and field.
  [[nodiscard]] static Parsed<FaultPlan> parse(std::string_view text);

  /// A randomized-but-reproducible plan for an n-node, `rounds`-round
  /// execution: moderate background rates, sometimes a crash window and a
  /// couple of scripted rules — all drawn from `seed` alone (the same
  /// per-ordinal RNG discipline as src/sweep/).
  [[nodiscard]] static FaultPlan from_seed(std::uint64_t seed, int n,
                                           int rounds);

  /// One-line human summary ("2 rules, 1 crash, rates d=0.05/u=0/l=0.1").
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

}  // namespace da::inject
