#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "sweep/shard.hpp"
#include "util/rng.hpp"

namespace da::sweep {

/// Sentinel "no hit yet" ordinal for first-hit fields.
inline constexpr std::uint64_t kNoHit =
    std::numeric_limits<std::uint64_t>::max();

/// Saved progress of one shard, for suspending a sweep and resuming it
/// later (possibly in another process — see src/faults/frontier.hpp for
/// the serialized form). `cursor` is the next unvisited ordinal; a shard
/// is settled when cursor == end. Counters are cumulative across runs.
struct ShardResume {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t cursor = 0;
  std::uint64_t executions = 0;
  std::uint64_t weighted = 0;
  std::uint64_t first_hit = kNoHit;
};

/// Saved progress of a whole sweep, one entry per plan shard, in plan
/// order (begins/ends must match the plan exactly).
struct SweepResume {
  std::vector<ShardResume> shards;
};

/// Per-shard counters, in shard (= ordinal) order.
struct ShardStats {
  std::uint64_t begin = 0;       // first global ordinal of the shard
  std::uint64_t end = 0;         // one past the last
  std::uint64_t cursor = 0;      // next unvisited ordinal (end: settled)
  std::uint64_t executions = 0;  // protocol executions actually performed
  std::uint64_t weighted = 0;    // orbit-weighted executions (see Visit)
  std::uint64_t violations = 0;  // hits reported by the visitor
  std::uint64_t first_hit = kNoHit;  // shard's first hit ordinal, if any
  double wall_ms = 0.0;          // wall time spent scanning this shard
  int worker = -1;  // thread that scanned it: 0 the caller, 1.. pool
                    // workers, -1 skipped (never scanned in this run)
};

/// Knobs for one parallel sweep.
struct SweepOptions {
  /// Scanning threads, the caller included; <= 0 means
  /// std::thread::hardware_concurrency().
  int jobs = 1;
  /// Base seed for the per-shard RNG streams (shard s receives
  /// Rng(mix64(seed, s.begin)) — a pure function of the plan, so streams
  /// are identical for every jobs value).
  std::uint64_t seed = 1;
  /// Resume from previously saved shard cursors instead of from scratch.
  /// Settled shards are skipped (their counters carry over verbatim) and
  /// saved hits pre-seed the canceller. Resuming a shard mid-range
  /// restarts its RNG stream from the shard head, so mid-shard resume is
  /// only sound for visitors that ignore `rng` (the behaviour search
  /// does; the family search checkpoints only at shard boundaries).
  const SweepResume* resume = nullptr;
  /// Cooperative suspension: polled (from the scanning threads — must be
  /// thread-safe) before each shard and each ordinal; once it returns
  /// true, in-flight shards park their cursors and later shards never
  /// start scanning. Suspended progress is reported via `per_shard`
  /// cursors.
  std::function<bool()> stop;
  /// Invoked from the scanning thread each time a shard settles
  /// (scanned to its end or found its hit) during *this* run — the hook
  /// for incremental frontier checkpointing. Not called for shards that
  /// were already settled by a resumed-in state, nor for suspended or
  /// cancelled shards.
  std::function<void(std::size_t shard, const ShardStats&)> on_shard_done;
};

/// Whole-sweep counters.
struct SweepStats {
  /// Canonical execution count: the number of protocol executions a
  /// serial early-exit scan of the same plan would perform — i.e. all
  /// executions at ordinals <= the first violation (or the whole space
  /// when there is none). Identical for every jobs value.
  std::uint64_t executions = 0;
  /// Canonical orbit-weighted execution count, aggregated exactly like
  /// `executions`. Visitors that skip symmetry orbits report each
  /// representative's orbit size as its weight, so on a clean (no-hit)
  /// sweep this reconciles to the full unreduced space.
  std::uint64_t weighted_executions = 0;
  /// Executions actually performed, including speculative work by shards
  /// that were later cancelled. >= executions; depends on scheduling.
  std::uint64_t performed = 0;
  std::uint64_t violations = 0;  // total hits seen (all shards)
  std::uint64_t shards = 0;
  int jobs = 1;
  double wall_ms = 0.0;  // end-to-end sweep wall time
  std::vector<ShardStats> per_shard;
};

/// Early-exit state shared by all shards of one sweep: the smallest hit
/// ordinal seen so far. A shard stops as soon as the best known hit
/// precedes its next ordinal — nothing it could still find would be the
/// sweep's first hit. Shards that precede the best hit are never
/// cancelled (they may still find an earlier one), which is exactly what
/// makes the canonical execution count deterministic.
class Canceller {
 public:
  static constexpr std::uint64_t kNone =
      std::numeric_limits<std::uint64_t>::max();

  /// True if a hit strictly before `ordinal` is already known.
  [[nodiscard]] bool cancelled(std::uint64_t ordinal) const {
    return best_.load(std::memory_order_relaxed) < ordinal;
  }

  /// Records a hit; keeps the minimum ordinal.
  void report(std::uint64_t ordinal) {
    std::uint64_t cur = best_.load(std::memory_order_relaxed);
    while (ordinal < cur &&
           !best_.compare_exchange_weak(cur, ordinal,
                                        std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t best() const {
    return best_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> best_{kNone};
};

/// The visitor executes the scenario at one global ordinal and reports
/// whether it was a violation ("hit"). `shard` is the shard's index in
/// the plan (stash per-shard payloads there — each shard is scanned by
/// exactly one thread, so a slot per shard needs no locking); `rng` is
/// the shard's private deterministic stream.
struct Visit {
  bool hit = false;
  /// Protocol executions this ordinal cost (family search runs a whole
  /// adversary family per scenario ordinal).
  std::uint64_t executions = 1;
  /// Orbit-weighted cost folded into `weighted` counters. Symmetry-aware
  /// visitors report the orbit size of an executed representative (and 0
  /// for skipped ordinals); plain visitors leave the default so weighted
  /// counts equal unweighted ones.
  std::uint64_t weight = 1;
  /// Skip-ahead target: when > ordinal + 1, the scan jumps there next
  /// (used to leap over non-canonical orbit members without visiting
  /// them). 0 (the default) means no skip. Jumps are clamped to the
  /// shard range; a hit always settles the shard regardless.
  std::uint64_t next = 0;
};
using Visitor =
    std::function<Visit(std::uint64_t ordinal, std::size_t shard, Rng& rng)>;

struct SweepResult {
  /// Smallest hit ordinal, or nullopt if no visitor reported a hit.
  std::optional<std::uint64_t> first_hit;
  /// Plan index of the shard containing first_hit.
  std::optional<std::size_t> first_hit_shard;
  SweepStats stats;
};

/// Runs the visitor over every ordinal of `plan` as one fork-join batch of
/// shards on a `ThreadPool` of jobs - 1 workers plus the calling thread,
/// early-exiting once the first (by ordinal) hit is settled. Shards start
/// in ascending order, each claimed by the next free thread.
///
/// Deterministic contract, for any jobs >= 1: `first_hit`,
/// `first_hit_shard` and `stats.executions` are identical; only
/// `stats.performed`, per-shard wall times and worker assignments vary.
///
/// The first exception thrown by the visitor (or by `stop` or
/// `on_shard_done`) is rethrown here, after every shard has finished.
[[nodiscard]] SweepResult run_sweep(const ShardPlan& plan,
                                    const SweepOptions& options,
                                    const Visitor& visitor);

/// Resolved job count: `jobs` if positive, else hardware concurrency.
[[nodiscard]] int resolve_jobs(int jobs);

/// Per-thread rollup of the per-shard counters, for scaling reports:
/// how many shards each scanning thread (0 the caller, 1.. pool workers)
/// scanned, how many protocol executions that cost, and how long it was
/// busy. Skipped (cancelled-before-start) shards are reported under
/// worker -1.
struct WorkerSummary {
  int worker = -1;
  std::uint64_t shards = 0;
  std::uint64_t executions = 0;
  double busy_ms = 0.0;
};
[[nodiscard]] std::vector<WorkerSummary> summarize_workers(
    const SweepStats& stats);

}  // namespace da::sweep
