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
  /// Walk only the canonical representative of each receiver-relabeling
  /// orbit, skipping non-minimal digit prefixes and weighting each
  /// representative by its orbit size (docs/SEARCH.md §5). The verdict,
  /// the first-hit ordinal, and — on clean sweeps — the orbit-weighted
  /// execution count (`SweepStats::weighted_executions`, which reconciles
  /// to `behavior_search_space`) are identical to the unreduced walk;
  /// only `executions` shrinks, to the representatives actually run.
  bool symmetry = true;
  /// Walk only one faulty subset per conjugacy class under sender-fixing
  /// node permutations, weighting its results by the class size
  /// (docs/SEARCH.md §6). Composes with `symmetry`: a representative's
  /// weight is its receiver-orbit size times its subset class size.
  /// Verdict, first-hit ordinal and weighted counts stay pinned to the
  /// unquotiented walk; the skipped segments never execute at all.
  bool subset_symmetry = true;
};

/// Parallel form: the same sweep, sharded deterministically over the
/// high-order base-4 digits of each subset's behaviour index and run on a
/// fork-join pool (see src/sweep/). Behaviour digits are big-endian
/// (slot 0 = most-significant digit), so ordinals sharing leading digits
/// share their round-0 assignment. The walk exploits exactly that: each
/// shard forks every execution from a checkpointed post-round-0 state
/// instead of replaying round 0 (docs/SEARCH.md §4), which ~halves the
/// simulated rounds and skips per-execution process construction; the
/// scratch `behavior_at` is its reference (tests/test_fork_engine.cpp).
/// With `options.symmetry` (the default) the walk visits one
/// representative per receiver-relabeling orbit. For every
/// `sweep_options.jobs` value — and for either quotient flag — it returns
/// the same first-violation-or-nullopt verdict, the same first-hit
/// ordinal, and the same canonical counts (`stats->executions` for fixed
/// flags, `stats->weighted_executions` across them); `stats` (optional)
/// additionally receives per-shard counters for scaling reports.
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

/// Number of protocol executions the unreduced search performs — the
/// full 4^k ordinal space (for reporting and reconciliation).
[[nodiscard]] std::uint64_t behavior_search_space(const Config& config,
                                                  int max_f = -1);

/// Number of canonical orbit representatives the symmetry-reduced walk
/// executes on a clean sweep: sum over segments of 4^fixed *
/// multichoose(4^rows, free receivers). Always <= behavior_search_space.
[[nodiscard]] std::uint64_t behavior_search_canonical_space(
    const Config& config, int max_f = -1);

/// Number of representatives the fully quotiented walk (receiver orbits
/// plus subset conjugacy, both defaults) executes on a clean sweep: the
/// canonical count summed over representative subsets only. Always <=
/// behavior_search_canonical_space.
[[nodiscard]] std::uint64_t behavior_search_quotient_space(
    const Config& config, int max_f = -1);

/// Re-executes the single behaviour at a global ordinal (scratch path, no
/// sweep) and reports its violation, if any. This is how a resumed
/// frontier rematerializes the Violation for a hit ordinal recorded by an
/// earlier process, and how tests map orbit members to their verdicts.
[[nodiscard]] std::optional<Violation> behavior_at(const Config& config,
                                                   int max_f,
                                                   std::uint64_t ordinal);

/// Builds a fresh (untouched) frontier for the behaviour search: one
/// record per sweep shard, cursors at their shard heads. `seed` is
/// stored in the frontier so every resuming process derives identical
/// per-shard RNG streams. With `subset_symmetry` (the default) the
/// frontier is quotiented — it carries one class record per conjugacy
/// class and serializes as `da-frontier v2`; pass false for the full v1
/// plan. The quotient choice is baked into the frontier (derived from
/// its class records on resume), so v1 files keep resuming unquotiented.
[[nodiscard]] Frontier init_behavior_frontier(const Config& config,
                                              int max_f = -1,
                                              std::uint64_t seed = 1,
                                              bool subset_symmetry = true);

struct FrontierRunOptions {
  int jobs = 1;
  /// Suspend after this many shard completions in *this* run (the
  /// kill-and-resume unit); -1 runs to settlement. Suspension is
  /// cooperative: in-flight shards park their cursors in the frontier.
  int max_shards = -1;
  /// Receiver-relabeling reduction for this run. A run-time knob because
  /// it changes which ordinals execute, never the shard plan. The subset
  /// quotient is *not* a run option: it reshapes the plan, so it is baked
  /// into the frontier at init time and derived from its class records.
  bool symmetry = true;
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
/// cannot run, or whose shards are not shards of the search's plan,
/// comes back untouched with `error` set.
[[nodiscard]] FrontierRun run_behavior_frontier(
    Frontier& frontier, const FrontierRunOptions& options = {});

}  // namespace da::faults
