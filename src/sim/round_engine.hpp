#pragma once

#include <memory>
#include <vector>

#include "sim/runner.hpp"

namespace da::sweep {
class ThreadPool;
}  // namespace da::sweep

namespace da::sim {

/// Resumable synchronous-round executor: `SyncRunner`'s loop, unrolled
/// into explicit phases so a search can checkpoint an execution at a round
/// boundary and fork cheap copies that continue under different adversary
/// decisions.
///
/// A round has two phases, and the engine alternates them:
///
///   1. *collect* — `begin()` has every process append its round-0 sends
///      to its outbox; `process_round()` delivers the pending inboxes for
///      the current round (canonical `sort_inbox` order) and runs
///      `on_round`, which appends the next-round sends to the same
///      outbox. Collected outboxes are *held*, not yet sent.
///   2. *dispatch* — `dispatch_pending()` pushes the held outboxes through
///      the adversary (`corrupt`/`fabricate`) and the network model into
///      the receivers' inboxes (`route`, sim/runner.hpp).
///
/// The split matters because all adversary influence happens at dispatch:
/// a snapshot taken between collect and dispatch (the *pre-dispatch
/// boundary*) captures an execution prefix that is independent of any
/// adversary decision not yet applied. `snapshot()` copies the full state
/// at such a boundary — `Process::clone()` of every node (plain vector
/// copies for the flat EIG arena), the held outboxes, the result counters,
/// and the trace prefix when a trace is attached — and `restore()` rewinds
/// an engine to it, reusing the engine's existing buffers so steady-state
/// forking allocates nothing. `set_adversary()` swaps the adversary
/// between forks; the prefix stays valid as long as the swapped-in
/// adversary would have made the same (absent) round-0..k decisions, which
/// docs/SEARCH.md's checkpoint-engine section spells out.
///
/// `run()` drives the phases to completion and is exactly `SyncRunner`'s
/// loop — `SyncRunner::run()` delegates here, so the two cannot drift.
/// Given a thread pool, `process_round` runs the nodes' steps as one
/// fork-join round on it; that is the threaded runtime
/// (`rt::ThreadedRunner`). Dispatch stays serial either way, so the
/// result does not depend on the pool.
class RoundEngine {
 public:
  RoundEngine(std::vector<std::unique_ptr<Process>> processes,
              RunOptions options);

  /// Collects round-0 sends. Must be the first phase call; counts one
  /// `sim.executions`.
  void begin();

  /// Dispatches the held outboxes (adversary, network, routing) into the
  /// receivers' next-round inboxes.
  void dispatch_pending();

  /// Delivers the current round's inboxes, runs `on_round`, holds the
  /// next-round outboxes. After the final round there is nothing left to
  /// dispatch and `done()` is true. With a `pool`, the nodes step in
  /// parallel as one `fork_join` round (the caller steps a chunk too); an
  /// exception from any node is rethrown here after every chunk has
  /// finished.
  void process_round(sweep::ThreadPool* pool = nullptr);

  /// True once every round has been processed.
  [[nodiscard]] bool done() const { return rounds_processed_ == rounds_; }

  /// Decisions + logical message counters of the execution so far.
  [[nodiscard]] RunResult finish() const;

  /// Reuse-friendly `finish()`: overwrites `out`, keeping its capacity.
  void finish_into(RunResult& out) const;

  /// Drives begin (unless already begun) / dispatch / process to
  /// completion and returns the result. One-shot equivalent of SyncRunner
  /// (or of the threaded runtime, given a pool).
  RunResult run(sweep::ThreadPool* pool = nullptr);

  [[nodiscard]] int total_rounds() const { return rounds_; }
  [[nodiscard]] int node_count() const {
    return static_cast<int>(processes_.size());
  }
  /// Rounds fully processed so far (= the next round to process).
  [[nodiscard]] int rounds_processed() const { return rounds_processed_; }

  /// Swap the adversary applied to future dispatches (forks install their
  /// own table); faulty-set, network and process topology stay fixed.
  void set_adversary(Adversary* adversary) { options_.adversary = adversary; }

  /// Swap the network model applied to future dispatches. Like
  /// `set_adversary`, this is sound at a pre-dispatch boundary: no
  /// dispatch of the current prefix consulted the old model after that
  /// boundary. The agreement service uses it to attach a per-slot
  /// fault-injection network on admission (docs/SERVICE.md).
  void set_network(NetworkModel* network) { options_.network = network; }

  /// Full engine state at a pre-dispatch boundary. Opaque to callers;
  /// create with `snapshot()`, consume with `restore()`.
  struct Snapshot {
    std::vector<std::unique_ptr<Process>> processes;
    std::vector<std::vector<Message>> pending;
    int pending_round = 0;
    int rounds_processed = 0;
    bool begun = false;
    std::size_t messages_sent = 0;
    std::size_t messages_delivered = 0;
    Trace trace;  // prefix transcript; meaningful iff trace_attached
    bool trace_attached = false;
  };

  /// Captures the state. Legal only at a pre-dispatch boundary (after
  /// `begin()` or `process_round()`, before `dispatch_pending()`), where
  /// the inboxes are empty by construction.
  [[nodiscard]] Snapshot snapshot() const;

  /// Rewinds this engine to `snap` (which must come from an engine over
  /// the same process set). Buffers are assigned over, not reallocated, so
  /// repeated restore/replay cycles are allocation-free at steady state.
  void restore(const Snapshot& snap);

 private:
  void dispatch(std::vector<Message>& outbox, NodeId from, int round,
                bool fabricated);
  /// One node's share of a round: sort inbox, `on_round`, hold outbox.
  void step_node(std::size_t i);

  std::vector<std::unique_ptr<Process>> processes_;
  RunOptions options_;
  NodeIndex index_;
  int rounds_ = 0;

  // Held outboxes (one per process) for round `pending_round_`, collected
  // but not yet dispatched. Processes append into them directly; dispatch
  // empties them and keeps their capacity, so warm rounds never allocate. `begun_` flips on begin(); `dispatched_`
  // tracks which phase is next.
  std::vector<std::vector<Message>> pending_;
  int pending_round_ = 0;
  bool begun_ = false;
  bool dispatched_ = false;

  // Inboxes for round `rounds_processed_`: filled by dispatch, consumed
  // and cleared (keeping capacity) by process_round.
  std::vector<std::vector<Message>> inboxes_;
  int rounds_processed_ = 0;

  std::size_t messages_sent_ = 0;
  std::size_t messages_delivered_ = 0;
};

}  // namespace da::sim
