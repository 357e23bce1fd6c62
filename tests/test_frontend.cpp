// The sharded front-end (src/service/frontend.{hpp,cpp}): deterministic
// routing, the extended determinism contract (digest, artifact and merged
// sketch serializations identical for every `jobs` value), and the
// sharding-transparency pin — an uncongested front-end stream must be
// record-identical to the single-service baseline.

#include "service/frontend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "service/service.hpp"

namespace da::service {
namespace {

ServiceConfig congested_config() {
  ServiceConfig config;
  config.arrivals = ArrivalSpec::poisson(40.0);
  config.offered = 300;
  config.cap = 8;  // per shard
  config.queue_cap = 8;
  config.policy = OverloadPolicy::kShedOldest;
  config.seed = 21;
  return config;
}

TEST(Frontend, RoutePolicyParseRoundTrips) {
  for (RoutePolicy route : {RoutePolicy::kHashJobId, RoutePolicy::kLeastLoaded}) {
    const auto parsed = parse_route_policy(to_string(route));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, route);
  }
  EXPECT_FALSE(parse_route_policy("round-robin").has_value());
  EXPECT_FALSE(parse_route_policy("").has_value());
}

TEST(Frontend, DigestAndSketchesInvariantAcrossJobsValues) {
  // The acceptance pin, extended to the front-end: for a fixed (config,
  // shards, route), every deterministic field — merged records, shard
  // placement, merged and per-class sketch serializations — must be
  // identical whether the cross-shard drain runs inline or on a pool.
  for (RoutePolicy route :
       {RoutePolicy::kHashJobId, RoutePolicy::kLeastLoaded}) {
    // One shard runs the same pooled tick as three: its instance chunks
    // still fan out over the workers.
    for (int shards : {1, 3}) {
      FrontendConfig config;
      config.service = congested_config();
      config.shards = shards;
      config.route = route;

      config.service.jobs = 1;
      const FrontendResult lone = run_frontend(config);
      config.service.jobs = 4;
      const FrontendResult fleet = run_frontend(config);

      const std::string where =
          std::string(to_string(route)) + " shards=" + std::to_string(shards);
      EXPECT_EQ(lone.digest(), fleet.digest()) << where;
      EXPECT_EQ(lone.artifact(), fleet.artifact()) << where;
      EXPECT_EQ(lone.shard_of, fleet.shard_of) << where;
      EXPECT_EQ(lone.completed, fleet.completed) << where;
      EXPECT_EQ(lone.shed, fleet.shed) << where;
      EXPECT_EQ(lone.ticks, fleet.ticks) << where;
      EXPECT_EQ(lone.latency_sketch.serialize(),
                fleet.latency_sketch.serialize())
          << where;
      EXPECT_EQ(lone.queue_sketch.serialize(), fleet.queue_sketch.serialize())
          << where;
      for (int c = 0; c < kAdmissionClassCount; ++c) {
        EXPECT_EQ(lone.class_latency[static_cast<std::size_t>(c)].serialize(),
                  fleet.class_latency[static_cast<std::size_t>(c)].serialize())
            << where << " class " << c;
      }
      ASSERT_EQ(lone.shards.size(), fleet.shards.size());
      for (std::size_t s = 0; s < lone.shards.size(); ++s) {
        EXPECT_EQ(lone.shards[s].completed, fleet.shards[s].completed);
        EXPECT_EQ(lone.shards[s].shed, fleet.shards[s].shed);
        EXPECT_EQ(lone.shards[s].peak_active, fleet.shards[s].peak_active);
      }
    }
  }
}

TEST(Frontend, UncongestedStreamMatchesSingleServiceBaseline) {
  // Sharding transparency: when nothing ever queues, the front-end only
  // redistributes execution — the per-job records, and therefore the
  // artifact and the merged sketches, are byte-identical to one plain
  // AgreementService run over the same seed.
  ServiceConfig base_config;
  base_config.arrivals = ArrivalSpec::poisson(2.0);
  base_config.offered = 200;
  base_config.cap = 64;
  base_config.seed = 21;
  const ServiceResult base = run_service(base_config);
  EXPECT_EQ(base.completed, base_config.offered);
  EXPECT_EQ(base.shed, 0u);

  for (RoutePolicy route :
       {RoutePolicy::kHashJobId, RoutePolicy::kLeastLoaded}) {
    for (int shards : {1, 4}) {
      FrontendConfig config;
      config.service = base_config;
      config.shards = shards;
      config.route = route;
      const FrontendResult front = run_frontend(config);
      EXPECT_EQ(front.completed, base.completed)
          << to_string(route) << " shards=" << shards;
      EXPECT_EQ(front.artifact(), base.artifact())
          << to_string(route) << " shards=" << shards;
      EXPECT_EQ(front.latency_sketch.serialize(),
                base.latency_sketch.serialize())
          << to_string(route) << " shards=" << shards;
      EXPECT_EQ(front.makespan, base.makespan);
      EXPECT_EQ(front.ticks, base.ticks);
      // One shard is the plain service, digest included; with several the
      // digest also folds placement, so it differs where the artifact
      // does not.
      if (shards == 1) {
        EXPECT_EQ(front.digest(), base.digest()) << to_string(route);
      } else {
        EXPECT_NE(front.digest(), base.digest()) << to_string(route);
      }
    }
  }
}

TEST(Frontend, OneShardIsTheSingleServiceEvenUnderOverload) {
  // With one shard the router is a no-op and the global event loop is
  // the service's own: congestion, shedding and all, the streams match —
  // records, sketches, the periodic series and the span trees.
  ServiceConfig service = congested_config();
  service.record_spans = true;
  service.sample_every = 0.75;
  const ServiceResult base = run_service(service);
  EXPECT_GT(base.shed, 0u);  // the comparison covers overload handling

  FrontendConfig config;
  config.service = service;
  config.shards = 1;
  const FrontendResult front = run_frontend(config);
  EXPECT_EQ(front.digest(), base.digest());
  EXPECT_EQ(front.artifact(), base.artifact());
  EXPECT_EQ(front.completed, base.completed);
  EXPECT_EQ(front.shed, base.shed);
  EXPECT_EQ(front.queue_sketch.serialize(), base.queue_sketch.serialize());
  EXPECT_EQ(obs::spans_to_jsonl(front.spans), obs::spans_to_jsonl(base.spans));
  ASSERT_FALSE(base.samples.empty());
  ASSERT_EQ(front.samples.size(), base.samples.size());
  for (std::size_t i = 0; i < base.samples.size(); ++i) {
    const ServiceSample& a = front.samples[i];
    const ServiceSample& b = base.samples[i];
    EXPECT_EQ(a.time, b.time) << "sample " << i;
    EXPECT_EQ(a.active, b.active) << "sample " << i;
    EXPECT_EQ(a.queued, b.queued) << "sample " << i;
    EXPECT_EQ(a.completed, b.completed) << "sample " << i;
    EXPECT_EQ(a.shed, b.shed) << "sample " << i;
    EXPECT_EQ(a.deadline_missed, b.deadline_missed) << "sample " << i;
    EXPECT_EQ(a.completed_by_class, b.completed_by_class) << "sample " << i;
    EXPECT_EQ(a.queued_by_class, b.queued_by_class) << "sample " << i;
    EXPECT_EQ(a.latency_p50, b.latency_p50) << "sample " << i;
    EXPECT_EQ(a.latency_p99, b.latency_p99) << "sample " << i;
  }
}

TEST(Frontend, RoutingIsConsistentAndCoversShards) {
  FrontendConfig config;
  config.service = congested_config();
  config.service.offered = 400;
  config.shards = 4;
  const FrontendResult result = run_frontend(config);

  ASSERT_EQ(result.records.size(), config.service.offered);
  ASSERT_EQ(result.shard_of.size(), config.service.offered);
  ASSERT_EQ(result.shards.size(), 4u);
  // Records come back sorted by global id, one per offered job.
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].id, i);
  }
  // Hash routing spreads a 400-job stream over every shard, and the
  // shard summaries tile the totals exactly.
  std::set<int> used(result.shard_of.begin(), result.shard_of.end());
  EXPECT_EQ(used.size(), 4u);
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  int peak = 0;
  for (const ShardSummary& shard : result.shards) {
    offered += shard.offered;
    completed += shard.completed;
    shed += shard.shed;
    peak = std::max(peak, shard.peak_active);
  }
  EXPECT_EQ(result.peak_active, peak);  // the largest shard peak
  EXPECT_EQ(offered, config.service.offered);
  EXPECT_EQ(completed, result.completed);
  EXPECT_EQ(shed, result.shed);
  EXPECT_EQ(result.completed + result.shed, config.service.offered);
}

TEST(Frontend, LeastLoadedSpreadsACongestedStream) {
  // Under sustained overload the least-loaded router must not pile the
  // whole stream onto shard 0: every shard ends up with work.
  FrontendConfig config;
  config.service = congested_config();
  config.shards = 4;
  config.route = RoutePolicy::kLeastLoaded;
  const FrontendResult result = run_frontend(config);
  for (const ShardSummary& shard : result.shards) {
    EXPECT_GT(shard.offered, 0u);
    EXPECT_GT(shard.completed, 0u);
  }
  // Repeat runs of one front-end are identical (warm pools included).
  ServiceFrontend frontend(config);
  const FrontendResult first = frontend.run();
  const FrontendResult second = frontend.run();
  EXPECT_EQ(first.digest(), second.digest());
  EXPECT_EQ(first.digest(), result.digest());
}

TEST(Frontend, AggregatedSamplesAreJobsInvariant) {
  FrontendConfig config;
  config.service = congested_config();
  config.service.sample_every = 1.0;
  config.shards = 2;
  config.service.jobs = 1;
  const FrontendResult lone = run_frontend(config);
  config.service.jobs = 4;
  const FrontendResult fleet = run_frontend(config);
  ASSERT_FALSE(lone.samples.empty());
  ASSERT_EQ(lone.samples.size(), fleet.samples.size());
  for (std::size_t i = 0; i < lone.samples.size(); ++i) {
    const ServiceSample& a = lone.samples[i];
    const ServiceSample& b = fleet.samples[i];
    EXPECT_DOUBLE_EQ(a.time, b.time);
    EXPECT_EQ(a.active, b.active);
    EXPECT_EQ(a.queued, b.queued);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.completed_by_class, b.completed_by_class);
    EXPECT_EQ(a.queued_by_class, b.queued_by_class);
    EXPECT_DOUBLE_EQ(a.latency_p50, b.latency_p50);
    EXPECT_DOUBLE_EQ(a.latency_p99, b.latency_p99);
  }
  // The aggregated series closes at the makespan with the final totals.
  EXPECT_EQ(lone.samples.back().completed, lone.completed);
}

#ifdef __linux__
TEST(Frontend, JobsCountsTheCallingThread) {
  // `jobs` counts every stepping thread, the caller included, as in
  // `run_sweep`: a front-end with jobs = 3 starts a pool of 2 workers.
  const auto threads = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  FrontendConfig config;
  config.service = congested_config();
  config.service.jobs = 3;
  const std::size_t before = threads();
  const ServiceFrontend frontend(config);
  EXPECT_EQ(threads() - before, 2u);
}
#endif

TEST(Frontend, RejectsEngineUnrunnableMixOnConstruction) {
  FrontendConfig config;
  config.service = congested_config();
  config.service.mix.push_back({JobKind::kByz, Config{.n = 2, .m = 1, .u = 1},
                                0, Value::of(17), {1}});
  EXPECT_THROW(ServiceFrontend{config}, UnsupportedConfig);
}

#ifndef DA_METRICS_DISABLED
TEST(Frontend, PeakActiveGaugeIsTheLargestShardPeak) {
  FrontendConfig config;
  config.service.arrivals = ArrivalSpec::poisson(10.0);
  config.service.offered = 300;
  config.service.cap = 24;
  config.service.seed = 7;
  config.shards = 3;
  config.route = RoutePolicy::kLeastLoaded;
  const FrontendResult result = run_frontend(config);
  // The last shard peaks lowest here, so its own figure is not the run's.
  ASSERT_GT(result.peak_active, result.shards.back().peak_active);
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().gauges.at(
                "service.peak_active"),
            result.peak_active);
}

TEST(Frontend, SpansMergeAcrossShardsWithGlobalJobIds) {
  FrontendConfig config;
  config.service = congested_config();
  config.service.offered = 60;
  config.service.record_spans = true;
  config.shards = 2;
  const FrontendResult result = run_frontend(config);
  ASSERT_FALSE(result.spans.empty());
  std::set<std::int64_t> jobs_seen;
  for (const obs::Span& span : result.spans) {
    if (span.name == "job") jobs_seen.insert(span.job);
  }
  // Every offered job closes exactly one job span (completed or shed),
  // under its global id.
  EXPECT_EQ(jobs_seen.size(), config.service.offered);
  EXPECT_EQ(*jobs_seen.begin(), 0);
  EXPECT_EQ(*jobs_seen.rbegin(),
            static_cast<std::int64_t>(config.service.offered) - 1);
}
#endif

}  // namespace
}  // namespace da::service
