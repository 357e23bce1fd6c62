#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "faults/frontier.hpp"
#include "faults/search.hpp"
#include "sweep/sweep.hpp"

namespace da::faults {

/// Exhaustive *behaviour* search for depth-2 instances (BYZ(m,m) with
/// m <= 1): instead of a fixed adversary family, enumerate every
/// deterministic assignment of values to every message a faulty node
/// sends, over the canonical four-symbol alphabet
///
///     { sender's value, forged w1, forged w2, V_d }.
///
/// For threshold-vote protocols a message's effect depends only on the
/// equality pattern among received values; a violation of D.1/D.3 needs
/// the forged bloc concentrated on one non-sender value, and a violation
/// of D.2/D.4 needs at most two distinct fault-free classes — so two
/// distinct forged symbols cover every equality pattern an adversary can
/// force, and omission is equivalent to delivering V_d (an unset EIG slot
/// reads as V_d). Under that standard canonicalization the sweep is
/// adversary-complete, not merely family-complete. docs/SEARCH.md spells
/// the argument out in full, with its caveats.
///
/// Controlled slots per faulty node: its round-0 broadcast (if it is the
/// sender: n-1 destinations) and its round-1 relay of the sender slot
/// (n-2 destinations). The enumeration is exponential in the slot count:
/// keep n small (n = 4: <= 4^7; n = 5: <= 4^11 in the worst subset).
///
/// Returns the first violating scenario, or nullopt if *no behaviour at
/// all* breaks the conditions — the executable form of Theorem 1 for
/// these configurations.
[[nodiscard]] std::optional<Violation> exhaustive_behavior_search(
    const Config& config, int max_f = -1);

/// Knobs for the behaviour enumeration itself (the sweep-pool knobs live
/// in sweep::SweepOptions).
struct BehaviorSearchOptions {
  /// Largest fault count to try; -1 means the config's u.
  int max_f = -1;
};

/// Parallel form: the same sweep, sharded deterministically over the
/// high-order base-4 digits of each subset's behaviour index and run on a
/// fork-join pool (see src/sweep/). Behaviour digits are big-endian
/// (slot 0 = most-significant digit), so ordinals sharing leading digits
/// share their round-0 assignment. The walk exploits exactly that: each
/// shard forks every execution from a checkpointed post-round-0 state
/// instead of replaying round 0 (docs/SEARCH.md §4), which ~halves the
/// simulated rounds and skips per-execution process construction.
///
/// The walk is quotiented twice (docs/SEARCH.md §5–§6): it runs one
/// faulty subset per conjugacy class under sender-fixing node
/// permutations, and within it one representative per receiver-relabeling
/// orbit, weighting each by orbit size times class size. The verdict and
/// the first-hit ordinal are those of the full 4^k enumeration, and on a
/// clean sweep `stats->weighted_executions` reconciles to
/// `behavior_search_space` while `stats->executions` is
/// `behavior_search_quotient_space`; the scratch `behavior_at` scan is
/// the reference the tests hold it to. All of these are identical for
/// every `sweep_options.jobs` value; `stats` (optional) additionally
/// receives per-shard counters for scaling reports.
///
/// Expects `behavior_search_unsupported(config, options.max_f)` to be
/// empty.
[[nodiscard]] std::optional<Violation> exhaustive_behavior_search(
    const Config& config, const BehaviorSearchOptions& options,
    const sweep::SweepOptions& sweep_options,
    sweep::SweepStats* stats = nullptr);

/// Why the behaviour search cannot run on `config` up to `max_f` faults
/// (-1: the config's u), or an empty string when it can. This is the one
/// place the slot cap is checked: the config must be a valid depth-2
/// instance the EIG engine runs, the fault limit at most n, and no
/// faulty subset may control more than `SlotSymmetry::kMaxSlots` slots
/// (4^12 = 16M behaviours per segment keeps a run bounded).
[[nodiscard]] std::string behavior_search_unsupported(const Config& config,
                                                      int max_f = -1);

/// Size of the full enumeration — the 4^k ordinal space summed over the
/// faulty subsets — which the walk's weighted counts reconcile to.
[[nodiscard]] std::uint64_t behavior_search_space(const Config& config,
                                                  int max_f = -1);

/// Number of representatives the quotient walk executes on a clean
/// sweep: over the subset-class representatives, the sum of 4^fixed *
/// multichoose(4^rows, free receivers). Always <= behavior_search_space.
[[nodiscard]] std::uint64_t behavior_search_quotient_space(
    const Config& config, int max_f = -1);

/// Re-executes the single behaviour at a global ordinal of the full
/// enumeration from scratch — no shard plan, quotient or fork engine —
/// and reports its violation, if any. This is how a resumed frontier
/// rematerializes the Violation for a hit ordinal recorded by an earlier
/// process, and the independent reference the tests scan the walk
/// against. Expects `ordinal < behavior_search_space(config, max_f)`.
[[nodiscard]] std::optional<Violation> behavior_at(const Config& config,
                                                   int max_f,
                                                   std::uint64_t ordinal);

/// Builds a fresh (untouched) frontier for the behaviour search: one
/// class record per subset-conjugacy class and one shard record per
/// sweep shard, cursors at their shard heads. `seed` is stored in the
/// frontier so every resuming process derives identical per-shard RNG
/// streams.
[[nodiscard]] Frontier init_behavior_frontier(const Config& config,
                                              int max_f = -1,
                                              std::uint64_t seed = 1);

struct FrontierRunOptions {
  int jobs = 1;
  /// Suspend after this many shard completions in *this* run (the
  /// kill-and-resume unit); -1 runs to settlement. Suspension is
  /// cooperative: in-flight shards park their cursors in the frontier.
  int max_shards = -1;
  /// Invoked (serialized, from worker threads) with the updated frontier
  /// each time a shard settles — hook the atomic save_frontier here for
  /// crash-safe incremental checkpoints.
  std::function<void(const Frontier&)> checkpoint;
};

struct FrontierRun {
  /// The violation at the frontier's best hit ordinal (rematerialized by
  /// re-execution when the hit was found by an earlier run). Only final
  /// once `settled`.
  std::optional<Violation> violation;
  sweep::SweepStats stats;
  /// Verdict is final: the frontier covers the space and no unscanned
  /// ordinal precedes the best hit. The frontier has been normalized
  /// (schedule-dependent post-hit progress discarded), so its serialized
  /// form is byte-identical for any jobs value / interruption pattern.
  bool settled = false;
  /// Non-empty when the search cannot run the frontier (see
  /// `behavior_search_unsupported`) or it does not match the search's plan.
  std::string error;
};

/// Runs (or resumes) the behaviour search described by `frontier`,
/// updating it in place. The frontier may be a split part (a subset of
/// the plan's shards): only its own shards are swept, and the verdict
/// settles only on a space-covering frontier. A frontier the search
/// cannot run, or whose classes or shards are not those of the search's
/// plan, comes back untouched with `error` set.
[[nodiscard]] FrontierRun run_behavior_frontier(
    Frontier& frontier, const FrontierRunOptions& options = {});

}  // namespace da::faults
