#include "sweep/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "obs/metrics.hpp"
#include "sweep/thread_pool.hpp"
#include "util/contracts.hpp"

namespace da::sweep {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

SweepResult run_sweep(const ShardPlan& plan, const SweepOptions& options,
                      const Visitor& visitor) {
  DA_EXPECTS(static_cast<bool>(visitor));
  using Clock = std::chrono::steady_clock;
  const auto sweep_start = Clock::now();
  // Flushes what the shards scanned on this thread staged, on return or
  // on a visitor's exception; workers flush after each shard themselves.
  const obs::MetricsScope metrics_scope;
  const int jobs = resolve_jobs(options.jobs);

  SweepResult result;
  result.stats.jobs = jobs;
  result.stats.shards = plan.shard_count();
  result.stats.per_shard.resize(plan.shard_count());
  if (options.resume != nullptr) {
    DA_EXPECTS(options.resume->shards.size() == plan.shard_count());
    for (std::size_t s = 0; s < plan.shard_count(); ++s) {
      const ShardResume& saved = options.resume->shards[s];
      DA_EXPECTS(saved.begin == plan.shard(s).begin);
      DA_EXPECTS(saved.end == plan.shard(s).end);
      DA_EXPECTS(saved.cursor >= saved.begin && saved.cursor <= saved.end);
    }
  }

  Canceller canceller;
  if (options.resume != nullptr) {
    // Pre-seed from hits found by earlier runs so cancellation picks up
    // exactly where the suspended sweep left off.
    for (const ShardResume& saved : options.resume->shards) {
      if (saved.first_hit != kNoHit) canceller.report(saved.first_hit);
    }
  }
  {
    // The caller scans shards too, so `jobs` threads scan in all. Shards
    // are claimed in ascending order, one at a time.
    ThreadPool pool(jobs - 1);
    pool.fork_join(plan.shard_count(), [&](std::size_t s) {
      const ShardRange range = plan.shard(s);
      ShardStats& stats = result.stats.per_shard[s];
      stats.begin = range.begin;
      stats.end = range.end;
      std::uint64_t o = range.begin;
      if (options.resume != nullptr) {
        const ShardResume& saved = options.resume->shards[s];
        stats.executions = saved.executions;
        stats.weighted = saved.weighted;
        stats.first_hit = saved.first_hit;
        if (saved.first_hit != kNoHit) stats.violations = 1;
        o = saved.first_hit != kNoHit ? range.end : saved.cursor;
      }
      stats.cursor = o;
      if (o >= range.end) return;  // settled by the resumed-in state
      if (canceller.cancelled(o)) return;  // stats.worker = -1
      if (options.stop && options.stop()) return;  // suspended, untouched
      stats.worker = pool.current_worker() + 1;  // the caller is 0
      const auto start = Clock::now();
      Rng rng(mix64(options.seed, range.begin));
      while (o < range.end) {
        if (canceller.cancelled(o)) break;
        if (options.stop && options.stop()) break;  // park the cursor
        const Visit visit = visitor(o, s, rng);
        stats.executions += visit.executions;
        stats.weighted += visit.weight;
        if (visit.hit) {
          ++stats.violations;
          stats.first_hit = o;
          canceller.report(o);
          o = range.end;  // ascending scan: the shard verdict is settled
          break;
        }
        o = std::max(o + 1, visit.next);
      }
      stats.cursor = std::min(o, range.end);
      stats.wall_ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - start)
                          .count();
      if (stats.cursor == range.end && options.on_shard_done) {
        options.on_shard_done(s, stats);
      }
    });
  }

  // Aggregate. The winner is the shard holding the best (minimum) hit
  // ordinal; every shard before it ran to completion (cancellation only
  // fires for ordinals after a known hit), so summing executed counts up
  // to and including the winner yields the canonical serial-early-exit
  // execution count.
  const std::uint64_t best = canceller.best();
  std::uint64_t performed_weighted = 0;
  std::size_t winner = plan.shard_count();
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const ShardStats& stats = result.stats.per_shard[s];
    result.stats.performed += stats.executions;
    performed_weighted += stats.weighted;
    result.stats.violations += stats.violations;
    if (winner == plan.shard_count() && best != Canceller::kNone &&
        best >= plan.shard(s).begin && best < plan.shard(s).end) {
      winner = s;
    }
  }
  if (best != Canceller::kNone) {
    DA_ENSURES(winner < plan.shard_count());
    result.first_hit = best;
    result.first_hit_shard = winner;
    for (std::size_t s = 0; s <= winner; ++s) {
      result.stats.executions += result.stats.per_shard[s].executions;
      result.stats.weighted_executions += result.stats.per_shard[s].weighted;
    }
  } else {
    result.stats.executions = result.stats.performed;
    result.stats.weighted_executions = performed_weighted;
  }
  result.stats.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - sweep_start)
          .count();

  // Fold the sweep's own statistics into the metrics registry (the
  // per-execution sim.* counters were already staged by the scanning
  // threads).
  static const obs::Counter sweeps("sweep.sweeps");
  static const obs::Counter executions("sweep.executions");
  static const obs::Counter weighted("sweep.weighted_executions");
  static const obs::Counter performed("sweep.performed");
  static const obs::Counter violations("sweep.violations");
  static const obs::Counter shards("sweep.shards");
  static const obs::Counter cancelled_shards("sweep.cancelled_shards");
  static const obs::Quantile shard_wall_ms("sweep.shard_wall_ms");
  static const obs::Quantile worker_busy_ms("sweep.worker_busy_ms");
  static const obs::Quantile wall_ms("sweep.wall_ms");
  sweeps.add();
  executions.add(result.stats.executions);
  weighted.add(result.stats.weighted_executions);
  performed.add(result.stats.performed);
  violations.add(result.stats.violations);
  shards.add(result.stats.shards);
  for (const ShardStats& shard : result.stats.per_shard) {
    if (shard.worker < 0) {
      cancelled_shards.add();
    } else {
      shard_wall_ms.record(shard.wall_ms);
    }
  }
  for (const WorkerSummary& w : summarize_workers(result.stats)) {
    if (w.worker >= 0) worker_busy_ms.record(w.busy_ms);
  }
  wall_ms.record(result.stats.wall_ms);
  obs::MetricsRegistry::global().set_gauge("sweep.jobs", jobs);
  return result;
}

std::vector<WorkerSummary> summarize_workers(const SweepStats& stats) {
  std::map<int, WorkerSummary> by_worker;
  for (const ShardStats& shard : stats.per_shard) {
    WorkerSummary& summary = by_worker[shard.worker];
    summary.worker = shard.worker;
    ++summary.shards;
    summary.executions += shard.executions;
    summary.busy_ms += shard.wall_ms;
  }
  std::vector<WorkerSummary> out;
  out.reserve(by_worker.size());
  for (const auto& [worker, summary] : by_worker) out.push_back(summary);
  return out;
}

}  // namespace da::sweep
