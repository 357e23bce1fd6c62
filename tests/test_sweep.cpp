// The parallel scenario-sweep engine (src/sweep/): thread pool, shard
// plans, first-hit-by-ordinal semantics, early-exit cancellation, and the
// cross-thread-count determinism contract the faults/ searches rely on —
// same seed + any --jobs value => identical violation verdict and
// identical canonical execution count.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "faults/behavior_search.hpp"
#include "faults/search.hpp"
#include "obs/metrics.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "sweep/thread_pool.hpp"

namespace da::sweep {
namespace {

// ---------------------------------------------------------------- pool --

/// Yields until `flag` is set; false after 10 s (a hung schedule fails
/// the test instead of hanging it).
bool wait_for(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, CurrentWorkerIsSetInsideAndNotOutside) {
  // The caller claims index 0 and holds it until index 1 has run, which
  // only a worker can have claimed.
  ThreadPool pool(2);
  EXPECT_EQ(pool.current_worker(), -1);
  std::atomic<bool> worker_ran{false};
  int on_caller = -2;
  int on_worker = -2;
  pool.fork_join(2, [&](std::size_t i) {
    if (i == 0) {
      on_caller = pool.current_worker();
      EXPECT_TRUE(wait_for(worker_ran));
      return;
    }
    on_worker = pool.current_worker();
    worker_ran = true;
  });
  EXPECT_EQ(on_caller, -1);
  EXPECT_TRUE(on_worker == 0 || on_worker == 1) << on_worker;
}

TEST(ThreadPool, ZeroWorkersRunsEveryIndexOnTheCallerInOrder) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.fork_join(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(pool.current_worker(), -1);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ForkJoinRunsEveryIndexExactlyOnce) {
  ThreadPool pool(2);
  for (const std::size_t n : {0u, 1u, 2u, 17u}) {
    std::vector<std::atomic<int>> runs(n);
    pool.fork_join(n, [&runs](std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "n " << n << " index " << i;
    }
  }
}

TEST(ThreadPool, ForkJoinRethrowsCallerChunkErrorAfterWorkerChunk) {
  // Chunk 0 runs on the caller; it throws only once chunk 1 is running on
  // the worker, and the error must not surface before chunk 1 finishes.
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  int caught = 0;
  try {
    pool.fork_join(2, [&](std::size_t i) {
      if (i == 0) {
        EXPECT_TRUE(wait_for(started));
        throw std::runtime_error("caller");
      }
      started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished = true;
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "caller");
    EXPECT_TRUE(finished.load());
  }
  EXPECT_EQ(caught, 1);
}

TEST(ThreadPool, ForkJoinRethrowsWorkerChunkErrorAfterEveryChunk) {
  // Chunk 1 throws on a worker while chunk 2 is still running on the
  // other one; the caller must wait for chunk 2 before rethrowing.
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<bool> both_started{false};
  std::atomic<bool> finished{false};
  int caught = 0;
  try {
    pool.fork_join(3, [&](std::size_t i) {
      if (i == 0) {
        EXPECT_TRUE(wait_for(both_started));
        return;
      }
      if (started.fetch_add(1) == 1) both_started = true;
      if (i == 1) throw std::runtime_error("worker");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished = true;
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "worker");
    EXPECT_TRUE(finished.load());
  }
  EXPECT_EQ(caught, 1);
}

TEST(ThreadPool, ForkJoinCallersDoNotWaitOnEachOther) {
  // Batch A's chunk is held until batch B, run by another thread on the
  // same pool, has returned.
  ThreadPool pool(2);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::atomic<bool> a_done{false};
  std::thread a([&] {
    pool.fork_join(2, [&](std::size_t i) {
      if (i != 1) return;
      held = true;
      EXPECT_TRUE(wait_for(release));
    });
    a_done = true;
  });
  ASSERT_TRUE(wait_for(held));
  std::atomic<int> b_runs{0};
  pool.fork_join(5, [&b_runs](std::size_t) { b_runs.fetch_add(1); });
  EXPECT_EQ(b_runs.load(), 5);
  EXPECT_FALSE(a_done.load());
  release = true;
  a.join();
  EXPECT_TRUE(a_done.load());
}

TEST(ThreadPool, ForkJoinFromInsidePoolTasksCompletes) {
  // A batch nested inside each index of a batch: index 0 on the caller,
  // and index 1 on the pool's only worker, which index 0 waits for.
  ThreadPool pool(1);
  std::atomic<bool> on_worker{false};
  std::atomic<int> count{0};
  pool.fork_join(2, [&](std::size_t i) {
    if (i == 1) {
      on_worker = pool.current_worker() == 0;
    } else {
      EXPECT_TRUE(wait_for(on_worker));
    }
    pool.fork_join(3, [&count](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 6);
}

// ---------------------------------------------------------------- plan --

TEST(ShardPlan, EvenPartitionCoversSpaceExactly) {
  const ShardPlan plan = ShardPlan::even(103, 10);
  EXPECT_EQ(plan.total(), 103u);
  EXPECT_EQ(plan.shard_count(), 11u);
  std::uint64_t expected_begin = 0;
  for (const ShardRange& r : plan.shards()) {
    EXPECT_EQ(r.begin, expected_begin);
    EXPECT_LE(r.size(), 10u);
    expected_begin = r.end;
  }
  EXPECT_EQ(expected_begin, 103u);
}

TEST(ShardPlan, Pow4SegmentsSplitAtHighOrderDigitBoundaries) {
  ShardPlan plan;
  // 4^5 = 1024 ordinals, blocks of at most 4^2: expect 4^3 = 64 blocks of
  // 16 — every block holds the behaviours sharing 3 leading 4-ary digits.
  plan.append_pow4(5, 16);
  EXPECT_EQ(plan.total(), 1024u);
  EXPECT_EQ(plan.shard_count(), 64u);
  for (std::size_t i = 0; i < plan.shard_count(); ++i) {
    EXPECT_EQ(plan.shard(i).size(), 16u);
    EXPECT_EQ(plan.shard(i).begin % 16, 0u);  // digit-aligned
  }
}

TEST(ShardPlan, Pow4BlockIsLargestPowerOfFourBelowTarget) {
  ShardPlan plan;
  plan.append_pow4(4, 100);  // 4^3 = 64 <= 100 < 256 = 4^4
  EXPECT_EQ(plan.shard_count(), 4u);
  EXPECT_EQ(plan.shard(0).size(), 64u);
}

TEST(ShardPlan, MixedSegmentsConcatenate) {
  ShardPlan plan;
  const std::uint64_t base0 = plan.append_pow4(2);   // 16 ordinals
  const std::uint64_t base1 = plan.append_even(5, 2);
  EXPECT_EQ(base0, 0u);
  EXPECT_EQ(base1, 16u);
  EXPECT_EQ(plan.total(), 21u);
}

TEST(ShardPlan, SkipLeavesGapsNoShardCovers) {
  // A quotiented enumeration drops whole segments: skip() advances the
  // ordinal space without creating shards, so gap ordinals never run.
  ShardPlan plan;
  const std::uint64_t gap0 = plan.skip(16);          // [0, 16) skipped
  const std::uint64_t base0 = plan.append_pow4(2);   // [16, 32)
  const std::uint64_t gap1 = plan.skip(48);          // [32, 80) skipped
  const std::uint64_t base1 = plan.append_even(4, 2);  // [80, 84)
  EXPECT_EQ(gap0, 0u);
  EXPECT_EQ(base0, 16u);
  EXPECT_EQ(gap1, 32u);
  EXPECT_EQ(base1, 80u);
  EXPECT_EQ(plan.total(), 84u);
  for (const ShardRange& r : plan.shards()) {
    EXPECT_TRUE((r.begin >= 16 && r.end <= 32) || r.begin >= 80)
        << "shard [" << r.begin << ", " << r.end << ") inside a gap";
  }
  // The sweep engine never visits gap ordinals.
  std::vector<std::atomic<int>> seen(84);
  SweepOptions options;
  options.jobs = 3;
  const auto result = run_sweep(
      plan, options, [&](std::uint64_t o, std::size_t, Rng&) -> Visit {
        seen[o].fetch_add(1);
        return {};
      });
  EXPECT_FALSE(result.first_hit.has_value());
  EXPECT_EQ(result.stats.executions, 20u);
  for (std::uint64_t o = 0; o < 84; ++o) {
    const bool planned = (o >= 16 && o < 32) || o >= 80;
    EXPECT_EQ(seen[o].load(), planned ? 1 : 0) << o;
  }
}

// -------------------------------------------------------------- engine --

TEST(RunSweep, VisitsEveryOrdinalWhenNothingHits) {
  const ShardPlan plan = ShardPlan::even(257, 16);
  std::vector<std::atomic<int>> seen(257);
  SweepOptions options;
  options.jobs = 4;
  const auto result = run_sweep(
      plan, options, [&](std::uint64_t o, std::size_t, Rng&) -> Visit {
        seen[o].fetch_add(1);
        return {};
      });
  EXPECT_FALSE(result.first_hit.has_value());
  EXPECT_EQ(result.stats.executions, 257u);
  EXPECT_EQ(result.stats.performed, 257u);
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(RunSweep, FirstHitIsSmallestOrdinalNotFastestWallClock) {
  // Hits at ordinals 400 (cheap shard, found quickly) and 37 (slow
  // shard). The sweep must settle on 37 regardless of timing.
  const ShardPlan plan = ShardPlan::even(512, 32);
  SweepOptions options;
  options.jobs = 4;
  const auto result = run_sweep(
      plan, options, [&](std::uint64_t o, std::size_t, Rng&) -> Visit {
        if (o == 37) {
          // Make the early shard slow so the later hit lands first in
          // wall-clock order on multi-core machines.
          for (volatile int spin = 0; spin < 200000; spin = spin + 1) {
          }
          return {.hit = true};
        }
        return {.hit = o == 400};
      });
  ASSERT_TRUE(result.first_hit.has_value());
  EXPECT_EQ(*result.first_hit, 37u);
  EXPECT_EQ(plan.shard(*result.first_hit_shard).begin, 32u);
}

TEST(RunSweep, CanonicalExecutionsCountSerialEarlyExitPrefix) {
  const ShardPlan plan = ShardPlan::even(1000, 10);
  for (int jobs : {1, 3, 8}) {
    SweepOptions options;
    options.jobs = jobs;
    const auto result = run_sweep(
        plan, options, [&](std::uint64_t o, std::size_t, Rng&) -> Visit {
          return {.hit = o == 321};
        });
    ASSERT_TRUE(result.first_hit.has_value()) << jobs;
    EXPECT_EQ(*result.first_hit, 321u) << jobs;
    // A serial early-exit scan executes ordinals 0..321 inclusive.
    EXPECT_EQ(result.stats.executions, 322u) << jobs;
    EXPECT_GE(result.stats.performed, result.stats.executions) << jobs;
  }
}

TEST(RunSweep, PerShardRngStreamsAreIdenticalAcrossJobCounts) {
  const ShardPlan plan = ShardPlan::even(64, 8);
  std::vector<std::uint64_t> draws_1(plan.shard_count());
  std::vector<std::uint64_t> draws_4(plan.shard_count());
  for (auto* draws : {&draws_1, &draws_4}) {
    SweepOptions options;
    options.jobs = draws == &draws_1 ? 1 : 4;
    options.seed = 99;
    (void)run_sweep(plan, options,
                    [&](std::uint64_t o, std::size_t shard, Rng& rng) -> Visit {
                      if (o == plan.shard(shard).begin) {
                        (*draws)[shard] = rng.next();
                      }
                      return {};
                    });
  }
  EXPECT_EQ(draws_1, draws_4);
}

TEST(RunSweep, PerShardStatsPartitionTheWork) {
  const ShardPlan plan = ShardPlan::even(100, 7);
  SweepOptions options;
  options.jobs = 2;
  const auto result = run_sweep(
      plan, options,
      [&](std::uint64_t, std::size_t, Rng&) -> Visit { return {}; });
  ASSERT_EQ(result.stats.per_shard.size(), plan.shard_count());
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const ShardStats& stats = result.stats.per_shard[s];
    EXPECT_EQ(stats.begin, plan.shard(s).begin);
    EXPECT_EQ(stats.executions, plan.shard(s).size());
    EXPECT_GE(stats.worker, 0);
    EXPECT_LT(stats.worker, 2);
    sum += stats.executions;
  }
  EXPECT_EQ(sum, result.stats.performed);
}

TEST(RunSweep, SingleJobScansEveryShardOnTheCallerAsWorkerZero) {
  const ShardPlan plan = ShardPlan::even(100, 7);
  const std::thread::id caller = std::this_thread::get_id();
  SweepOptions options;
  options.jobs = 1;
  const auto result = run_sweep(
      plan, options, [&](std::uint64_t, std::size_t, Rng&) -> Visit {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        return {};
      });
  for (const ShardStats& stats : result.stats.per_shard) {
    EXPECT_EQ(stats.worker, 0);
  }
}

TEST(RunSweep, VisitorExceptionReachesCaller) {
  const ShardPlan plan = ShardPlan::even(200, 10);
  for (const int jobs : {1, 3}) {
    SweepOptions options;
    options.jobs = jobs;
    EXPECT_THROW(
        (void)run_sweep(plan, options,
                        [](std::uint64_t o, std::size_t, Rng&) -> Visit {
                          if (o == 57) throw std::runtime_error("visitor");
                          return {};
                        }),
        std::runtime_error)
        << jobs;
  }
}

TEST(SummarizeWorkers, RollsUpPerWorkerIncludingSkippedShards) {
  // Hand-built stats: worker 0 ran two shards, worker 1 one, and two
  // shards were cancelled before any worker picked them up (worker -1 —
  // they must land in their own bucket, not vanish or pollute a worker's).
  SweepStats stats;
  const auto shard = [](int worker, std::uint64_t executions,
                        double wall_ms) {
    ShardStats s;
    s.worker = worker;
    s.executions = executions;
    s.wall_ms = wall_ms;
    return s;
  };
  stats.per_shard = {shard(0, 10, 1.5), shard(1, 7, 2.0), shard(0, 3, 0.5),
                     shard(-1, 0, 0.0), shard(-1, 0, 0.0)};

  const auto summaries = summarize_workers(stats);
  ASSERT_EQ(summaries.size(), 3u);  // -1, 0, 1 in ascending worker order
  EXPECT_EQ(summaries[0].worker, -1);
  EXPECT_EQ(summaries[0].shards, 2u);
  EXPECT_EQ(summaries[0].executions, 0u);
  EXPECT_EQ(summaries[1].worker, 0);
  EXPECT_EQ(summaries[1].shards, 2u);
  EXPECT_EQ(summaries[1].executions, 13u);
  EXPECT_DOUBLE_EQ(summaries[1].busy_ms, 2.0);
  EXPECT_EQ(summaries[2].worker, 1);
  EXPECT_EQ(summaries[2].executions, 7u);
}

TEST(RunSweep, PopulatesMetricsRegistry) {
#ifdef DA_METRICS_DISABLED
  GTEST_SKIP() << "registry instruments compile to no-ops under "
                  "-DDA_METRICS=OFF";
#endif
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t sweeps_before = registry.counter_value("sweep.sweeps");
  const std::uint64_t execs_before =
      registry.counter_value("sweep.executions");
  const std::uint64_t wall_before =
      registry.snapshot().quantiles["sweep.wall_ms"].count();
  const std::uint64_t busy_before =
      registry.snapshot().quantiles["sweep.worker_busy_ms"].count();

  const ShardPlan plan = ShardPlan::even(64, 8);
  SweepOptions options;
  options.jobs = 2;
  const auto result = run_sweep(
      plan, options,
      [&](std::uint64_t, std::size_t, Rng&) -> Visit { return {}; });
  (void)result;

  EXPECT_EQ(registry.counter_value("sweep.sweeps"), sweeps_before + 1);
  EXPECT_EQ(registry.counter_value("sweep.executions"), execs_before + 64);
  auto snap = registry.snapshot();
  EXPECT_EQ(snap.quantiles["sweep.wall_ms"].count(), wall_before + 1);
  // One busy_ms sample per worker that ran shards (the -1 bucket is
  // excluded from the sketch).
  EXPECT_GT(snap.quantiles["sweep.worker_busy_ms"].count(), busy_before);
  EXPECT_LE(snap.quantiles["sweep.worker_busy_ms"].count(), busy_before + 2);
  EXPECT_EQ(snap.gauges["sweep.jobs"], 2.0);
}

// ------------------------------------------- ported faults/ searches ----

/// The determinism contract the satellites ask for: same seed, different
/// --jobs => identical violation verdict AND identical canonical
/// execution count.
TEST(SweepDeterminism, BehaviourSearchVerdictAndCountMatchAcrossJobs) {
  const Config broken{.n = 4, .m = 1, .u = 2};  // Figure 2: must violate
  const Config solid{.n = 4, .m = 1, .u = 1};   // Lamport minimal: must not

  std::optional<std::string> reference_hit;
  std::optional<std::uint64_t> reference_count;
  for (int jobs : {1, 2, 5}) {
    SweepOptions options;
    options.jobs = jobs;
    SweepStats stats;
    const auto violation =
        faults::exhaustive_behavior_search(
            broken, faults::BehaviorSearchOptions{}, options, &stats);
    ASSERT_TRUE(violation.has_value()) << jobs;
    const std::string hit =
        violation->spec.to_string() + " / " + violation->adversary;
    if (!reference_hit.has_value()) {
      reference_hit = hit;
      reference_count = stats.executions;
    }
    EXPECT_EQ(hit, *reference_hit) << jobs;
    EXPECT_EQ(stats.executions, *reference_count) << jobs;
    EXPECT_GE(stats.performed, stats.executions) << jobs;
  }

  for (int jobs : {1, 3}) {
    SweepOptions options;
    options.jobs = jobs;
    SweepStats stats;
    EXPECT_FALSE(
        faults::exhaustive_behavior_search(
            solid, faults::BehaviorSearchOptions{}, options, &stats)
            .has_value())
        << jobs;
    // No violation: the walk executes exactly the canonical orbit
    // representatives of the representative conjugacy subsets, and their
    // (orbit size x class size)-weighted sum reconciles to the whole
    // (unreduced) behaviour space.
    EXPECT_EQ(stats.executions,
              faults::behavior_search_quotient_space(solid))
        << jobs;
    EXPECT_EQ(stats.weighted_executions, faults::behavior_search_space(solid))
        << jobs;
  }
}

TEST(SweepDeterminism, FamilySearchVerdictAndCountMatchAcrossJobs) {
  const Config infeasible{.n = 4, .m = 1, .u = 2};
  faults::SearchOptions search;
  search.seed = 11;
  search.all_senders = true;
  search.random_trials = 3;

  std::optional<std::string> reference_hit;
  std::optional<std::uint64_t> reference_count;
  for (int jobs : {1, 2, 4}) {
    SweepOptions options;
    options.jobs = jobs;
    SweepStats stats;
    const auto violation =
        faults::search_violation(infeasible, search, options, &stats);
    ASSERT_TRUE(violation.has_value()) << jobs;
    const std::string hit =
        violation->spec.to_string() + " / " + violation->adversary;
    if (!reference_hit.has_value()) {
      reference_hit = hit;
      reference_count = stats.executions;
    }
    EXPECT_EQ(hit, *reference_hit) << jobs;
    EXPECT_EQ(stats.executions, *reference_count) << jobs;
  }
}

TEST(SweepDeterminism, FamilySearchFeasibleStaysCleanInParallel) {
  const Config feasible{.n = 5, .m = 1, .u = 2};
  faults::SearchOptions search;
  search.seed = 7;
  SweepOptions options;
  options.jobs = 3;
  SweepStats stats;
  EXPECT_FALSE(faults::search_violation(feasible, search, options, &stats)
                   .has_value());
  // Nothing hit => canonical count equals performed count equals the
  // full family-search space.
  EXPECT_EQ(stats.executions, stats.performed);
  EXPECT_GT(stats.executions, 0u);
}

TEST(SweepDeterminism, ParallelBehaviourSearchAgreesWithSerialWrapper) {
  const Config config{.n = 4, .m = 1, .u = 2};
  const auto serial = faults::exhaustive_behavior_search(config);
  SweepOptions options;
  options.jobs = 4;
  const auto parallel =
      faults::exhaustive_behavior_search(
          config, faults::BehaviorSearchOptions{}, options);
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(parallel.has_value());
  EXPECT_EQ(serial->spec.to_string(), parallel->spec.to_string());
  EXPECT_EQ(serial->adversary, parallel->adversary);
  EXPECT_EQ(serial->report.applied, parallel->report.applied);
}

}  // namespace
}  // namespace da::sweep
