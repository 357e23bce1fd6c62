#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in the order they are produced.
class Metrics {
 public:
  void put(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// How long a timed pass runs: at least `seconds` of wall time and at
/// least `min_ops` operations (so the reported tail percentile has ten
/// samples beyond it), but never past `hard_seconds`.
struct Budget {
  double seconds = 10.0;
  std::size_t min_ops = 1;
  double hard_seconds = 120.0;

  [[nodiscard]] bool more(double elapsed_s, std::size_t ops) const {
    if (elapsed_s >= hard_seconds) return false;
    return elapsed_s < seconds || ops < min_ops;
  }
};

/// What one timed pass of a workload measured. An *operation* is the
/// workload's unit of wall time (certify: a cycle; service: a tick;
/// frontend: a run+export cycle; replay: a case). A pass repeats one
/// fixed *round* of `ops_per_round` operations (certify, frontend: one
/// cycle; service: the ticks of one 40,000-job run; replay: a block of
/// 1,200 cases), so operation k of every round does the same work.
///
/// The machine's other tenants slow it down by up to half, in bursts
/// from a tenth of a second to seconds. The end-to-end figures are
/// therefore read at each operation's fast end: its 10th percentile over
/// the rounds.
/// `throughput` is the round's work over the sum of those times (each
/// with the loop's own work since the previous operation, `cover_ms`);
/// `fast_op_ms` is their median over the round.
struct Pass {
  std::vector<double> op_ms;
  /// Per operation: its time plus the timed loop's own work since the
  /// previous one (service: the offers before a tick). Same size as `op_ms`.
  std::vector<double> cover_ms;
  std::size_t ops_per_round = 1;
  double work_per_round = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First failure, for the error report.
  std::string failure;

  void fail(std::string what) {
    ++failed;
    if (failure.empty()) failure = std::move(what);
  }
  /// Records an operation that is its own cover.
  void add_op(double ms) {
    op_ms.push_back(ms);
    cover_ms.push_back(ms);
  }
  [[nodiscard]] std::size_t rounds() const {
    return op_ms.size() / ops_per_round;
  }
  /// Appends the rounds, counts and first failure of `other`, a pass of
  /// the same rounds.
  void append(const Pass& other);
  /// Work units per second of a round run at every operation's fast end.
  [[nodiscard]] double throughput() const;
  /// Median over the round of each operation's fast-end time.
  [[nodiscard]] double fast_op_ms() const;
};

/// Per-call costs of the sim/core layer on one scenario shape, measured
/// from the public `RoundEngine` / `check_conditions` entry points (see
/// probes.cpp). Used to attribute a workload's wall time to its layers.
struct ShapeCost {
  double restore_us = 0.0;
  double snapshot_us = 0.0;
  double dispatch_us = 0.0;        // per dispatch_pending() call
  double process_round_us = 0.0;   // per process_round() call
  double check_us = 0.0;           // per check_conditions() call
  int rounds = 0;                  // rounds per execution
};

/// Common base of the four workloads. A workload's constructor is its
/// set-up (construction, cache fills, one warm operation); `run` is the
/// timed closed loop; `trace` is the separate traced run that fills the
/// per-layer metrics.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual Pass run(const Budget& budget) = 0;
  /// Untraced pass, then traced pass under `tracer`, each within `budget`;
  /// appends the workload's per-layer metrics, its tracing overhead and
  /// (where defined) its unattributed share to `out`. Returns the traced
  /// pass (for its attempted/failed counts).
  virtual Pass trace(const Budget& budget, Tracer& tracer, Metrics& out) = 0;
};

/// `budget`, extended to at least the operations a tail percentile q needs.
[[nodiscard]] Budget with_tail(const Budget& budget, double q);

/// Puts `<prefix>.p50` and the tail `<prefix>.p<100 q>` of the pass's
/// operation times (falling back to the maximum, with a warning, when the
/// pass stopped before ten samples lay beyond the tail).
void put_op_percentiles(Metrics& out, const std::string& prefix,
                        const Pass& pass, double q);

/// Pins every thread of the process (and so the threads they start) to
/// one of the CPUs it may run on, moving to the next CPU on every
/// `next()`; the destructor restores the full set. The timed loops call
/// `next()` once per round, so that each operation is timed on every CPU
/// and a CPU slowed for a while by another tenant cannot hold a whole
/// run.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Tracing overhead as the end-to-end difference between the two passes:
/// untraced over traced throughput, minus one.
[[nodiscard]] double overhead_share(const Pass& plain, const Pass& traced);

/// Reads a registry counter (flushing the calling thread's staged deltas).
[[nodiscard]] std::uint64_t counter(std::string_view name);

/// Mix of two 64-bit values (the library's `mix64`), for deriving inputs
/// from the workload seed.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
