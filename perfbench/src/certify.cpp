// `certify`: exhaustive certification cycles on one sweep worker.
//
// A cycle runs the adversary-complete behaviour search (receiver orbits
// plus subset quotient, the defaults) on the clean cells (5,1,2) and
// (6,1,2) and on the violating cell (4,1,2), then the adversary-family
// search on (7,1,4). Every call's verdict, first-hit ordinal and counts
// are checked against pinned values. Only the faults and sweep layers do
// work here, over one cache-resident engine per shard; there is no
// service, no threaded or event runtime and no span recording.

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "faults/behavior_search.hpp"
#include "faults/search.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Cell {
  const char* tag;
  da::Config config;
  bool family;  // search_violation (adversary family) vs behaviour search
};

// Cycle order: the two clean cells, the violating cell, the family search.
constexpr std::array<Cell, 4> kCells{{
    {"c512", {5, 1, 2}, false},
    {"c612", {6, 1, 2}, false},
    {"c412", {4, 1, 2}, false},
    {"f714", {7, 1, 4}, true},
}};

struct Expected {
  bool violation = false;
  std::uint64_t first_hit = da::sweep::kNoHit;
  std::uint64_t executions = 0;
  std::uint64_t weighted = 0;  // 0: not checked
};

/// Registry deltas of one call, for the per-layer counts and attribution.
struct CallCounts {
  std::uint64_t performed = 0;  // protocol executions (one check each)
  std::uint64_t rounds = 0;     // process_round calls (one dispatch each)
  std::uint64_t forks = 0;      // restores from a checkpoint
  std::uint64_t checkpoints = 0;
  std::uint64_t messages = 0;
  std::uint64_t reps = 0;
  std::uint64_t skipped = 0;
  std::uint64_t weight = 0;
  std::uint64_t shards = 0;

  static CallCounts read() {
    CallCounts c;
    c.performed = counter("sweep.performed");
    c.rounds = counter("sim.rounds");
    c.forks = counter("search.forks");
    c.checkpoints = counter("search.checkpoints");
    c.messages = counter("sim.messages_sent");
    c.reps = counter("search.canon.representatives");
    c.skipped = counter("search.canon.skipped");
    c.weight = counter("search.canon.weight");
    return c;
  }
  CallCounts minus(const CallCounts& b) const {
    return {performed - b.performed, rounds - b.rounds,
            forks - b.forks,         checkpoints - b.checkpoints,
            messages - b.messages,   reps - b.reps,
            skipped - b.skipped,     weight - b.weight,
            shards - b.shards};
  }
  void add(const CallCounts& o) {
    performed += o.performed;
    rounds += o.rounds;
    forks += o.forks;
    checkpoints += o.checkpoints;
    messages += o.messages;
    reps += o.reps;
    skipped += o.skipped;
    weight += o.weight;
    shards += o.shards;
  }
};

std::uint64_t first_hit_of(const da::sweep::SweepStats& stats) {
  std::uint64_t best = da::sweep::kNoHit;
  for (const auto& shard : stats.per_shard) {
    best = std::min(best, shard.first_hit);
  }
  return best;
}

class Certify final : public Workload {
 public:
  explicit Certify(std::uint64_t seed) {
    sweep_.jobs = 1;
    sweep_.seed = seed;
    search_.seed = seed;
    // Seeded random probes on top of the exhaustive subset scan: the
    // seed changes which scenarios run, never how many.
    search_.random_trials = 8;
    for (std::size_t i = 0; i < kCells.size(); ++i) {
      expected_[i] = expected_for(kCells[i]);
    }
    Pass warm;
    cycle(warm, nullptr, 0, nullptr);
    if (warm.failed != 0) throw std::runtime_error(warm.failure);
  }

  Pass run(const Budget& budget) override { return loop(budget, nullptr); }

  Pass trace(const Budget& budget, Tracer& tracer, Metrics& out) override;

 private:
  Expected expected_for(const Cell& cell) const {
    Expected e;
    if (cell.family) {
      // Feasible (N = 2m+u+1): no adversary in the family breaks it. The
      // canonical execution count is seed-independent (each probe runs
      // the whole family, whichever scenario the seed picks).
      e.executions = 1829;
      return e;
    }
    if (cell.config.n == 4) {
      // Theorem 2 boundary violated (N = 4 < 2m+u+1 = 5): the quotiented
      // walk's first hit and the executions up to it are pinned.
      e.violation = true;
      e.first_hit = 129;
      e.executions = 42;
      e.weighted = 0;
      return e;
    }
    e.executions = da::faults::behavior_search_quotient_space(cell.config);
    e.weighted = da::faults::behavior_search_space(cell.config);
    return e;
  }

  /// One certification call, checked against its pinned outcome.
  void call(std::size_t i, Pass& pass, da::sweep::SweepStats& stats) {
    const Cell& cell = kCells[i];
    const Expected& want = expected_[i];
    std::optional<da::faults::Violation> found;
    if (cell.family) {
      found = da::faults::search_violation(cell.config, search_, sweep_,
                                           &stats);
    } else {
      found = da::faults::exhaustive_behavior_search(
          cell.config, da::faults::BehaviorSearchOptions{}, sweep_, &stats);
    }
    ++pass.attempted;
    const bool ok =
        found.has_value() == want.violation &&
        stats.executions == want.executions &&
        (want.weighted == 0 || stats.weighted_executions == want.weighted) &&
        (cell.family || first_hit_of(stats) == want.first_hit);
    if (!ok) {
      pass.fail(std::string(cell.tag) + ": verdict " +
                (found ? "violation" : "clean") + ", executions " +
                std::to_string(stats.executions) + ", weighted " +
                std::to_string(stats.weighted_executions) + ", first hit " +
                std::to_string(first_hit_of(stats)));
    }
  }

  /// One cycle. With a tracer, each call gets a span and its registry
  /// deltas are added to `counts[i]`.
  void cycle(Pass& pass, Tracer* tracer, std::uint64_t op,
             std::array<CallCounts, kCells.size()>* counts) {
    const auto t0 = Clock::now();
    {
      const Scope cycle_span(tracer, span_cycle_, op);
      for (std::size_t i = 0; i < kCells.size(); ++i) {
        da::sweep::SweepStats stats;
        if (tracer == nullptr) {
          call(i, pass, stats);
          continue;
        }
        const CallCounts before = CallCounts::read();
        {
          const Scope call_span(tracer, span_call_[i], op);
          call(i, pass, stats);
        }
        CallCounts delta = CallCounts::read().minus(before);
        delta.shards = stats.shards;
        (*counts)[i].add(delta);
        for (const auto& shard : stats.per_shard) {
          if (shard.worker >= 0) shard_ms_.push_back(shard.wall_ms);
        }
      }
    }
    pass.add_op(ms_between(t0, Clock::now()));
  }

  Pass loop(const Budget& budget, Tracer* tracer,
            std::array<CallCounts, kCells.size()>* counts = nullptr) {
    // A round is one cycle; its work is the canonical executions.
    Pass pass;
    for (const Expected& e : expected_) {
      pass.work_per_round += static_cast<double>(e.executions);
    }
    CpuRotation cpus;
    const auto start = Clock::now();
    std::uint64_t op = 0;
    while (budget.more(ms_between(start, Clock::now()) / 1e3,
                       pass.op_ms.size())) {
      cpus.next();
      cycle(pass, tracer, op++, counts);
    }
    return pass;
  }

  da::sweep::SweepOptions sweep_;
  da::faults::SearchOptions search_;
  std::array<Expected, kCells.size()> expected_{};
  std::uint32_t span_cycle_ = 0;
  std::array<std::uint32_t, kCells.size()> span_call_{};
  std::vector<double> shard_ms_;
};

Pass Certify::trace(const Budget& budget, Tracer& tracer, Metrics& out) {
  span_cycle_ = tracer.intern("certify.cycle");
  for (std::size_t i = 0; i < kCells.size(); ++i) {
    span_call_[i] = tracer.intern(std::string("faults.") + kCells[i].tag);
  }
  const Pass plain = loop(with_tail(budget, 0.90), nullptr);
  put_op_percentiles(out, "certify.cycle_ms", plain, 0.90);
  std::array<CallCounts, kCells.size()> counts{};
  shard_ms_.clear();
  const Pass traced = loop(budget, &tracer, &counts);
  const double cycles = static_cast<double>(traced.op_ms.size());

  CallCounts total;
  for (const CallCounts& c : counts) total.add(c);
  for (std::size_t i = 0; i < kCells.size(); ++i) {
    out.put(std::string("faults.call_ms.") + kCells[i].tag,
            median(tracer.durations_ms(std::string("faults.") +
                                       kCells[i].tag)),
            "ms");
  }
  const auto per = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  out.put("faults.reps_per_cycle", static_cast<double>(total.reps) / cycles,
          "count");
  out.put("faults.skipped_per_rep", per(total.skipped, total.reps), "count");
  out.put("faults.weight_per_rep", per(total.weight, total.reps), "count");
  out.put("faults.forks_per_exec", per(total.forks, total.performed),
          "count");
  out.put("sim.messages_per_exec", per(total.messages, total.performed),
          "count");
  out.put("sim.rounds_per_exec", per(total.rounds, total.performed),
          "count");
  out.put("sweep.shards_per_cycle", static_cast<double>(total.shards) / cycles,
          "count");
  out.put("sweep.shard_ms.p50", median(shard_ms_), "ms");
  out.put("sweep.shard_ms.p99",
          tail_percentile(shard_ms_, 0.99).value_or(
              *std::max_element(shard_ms_.begin(), shard_ms_.end())),
          "ms");

  // Parts vs whole: each call's exact counts priced at its own shape's
  // per-call costs, against the untraced cycle wall.
  double attributed_ms = 0.0;
  for (std::size_t i = 0; i < kCells.size(); ++i) {
    const Cell& cell = kCells[i];
    const ShapeCost cost = probe_shape(Shape{ShapeKind::kByz, cell.config, {1}});
    const CallCounts& c = counts[i];
    const double us =
        cost.restore_us * static_cast<double>(c.forks + c.checkpoints) +
        cost.snapshot_us * static_cast<double>(c.checkpoints) +
        (cost.dispatch_us + cost.process_round_us) *
            static_cast<double>(c.rounds) +
        cost.check_us * static_cast<double>(c.performed);
    attributed_ms += us / 1e3 / cycles;
  }
  const double wall = median(plain.op_ms);
  out.put("certify.unattributed_share", (wall - attributed_ms) / wall,
          "ratio");
  out.put("trace.overhead_share.certify", overhead_share(plain, traced),
          "ratio");
  return traced;
}

}  // namespace

std::unique_ptr<Workload> make_certify(std::uint64_t seed) {
  return std::make_unique<Certify>(seed);
}

}  // namespace perfbench
