#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "service/service.hpp"
#include "sweep/thread_pool.hpp"

namespace da::service {

/// The sharded front-end (docs/SERVICE.md §"Sharded front-end"): N
/// independent `AgreementService` shards behind one deterministic router
/// and one global virtual-time event loop. It is the run-and-merge path
/// `detail::run` that `AgreementService::run()` runs over one shard, here
/// over N shards with a router: the arrival stream and the per-job draws
/// (template, adversary — pure functions of (seed, global id)) are
/// global, every shard's round ticks run in lockstep on one global tick
/// grid, and the shards' results are exact-merged into one
/// `ServiceResult`. Stepping is batched on one sweep `ThreadPool` of
/// `service.jobs - 1` workers plus the calling thread: shards touch
/// disjoint state, so a tick is one fork-join round of (shard,
/// instance-chunk) chunks across all of them.
///
/// Determinism contract, extended: for a fixed (config, shard count,
/// route policy), every field of the result except `wall_ms` — merged
/// records, per-shard placement, merged and per-class quantile sketches —
/// is identical for every `jobs` value (`digest()` pins it, placement
/// included when there are several shards). And because the shards run
/// the plain service's own path (one global tick grid, arrival-first
/// tie-break, class-aware admission inside each shard), an *uncongested*
/// front-end stream is record-identical to the single-service baseline —
/// sharding only redistributes queueing, never outcomes — and a one-shard
/// front-end is the plain service, digest included.
enum class RoutePolicy {
  /// shard = mix64(seed, id) % shards: stateless, uniform in the limit.
  kHashJobId,
  /// The shard with the least (active + queued) slot width at arrival
  /// time; ties break to the lowest shard index. Deterministic because
  /// routing happens on the event-loop thread between ticks.
  kLeastLoaded,
};

[[nodiscard]] const char* to_string(RoutePolicy policy);

/// Parses "hash" / "least-loaded" (the `service_demo --route`
/// vocabulary); nullopt on anything else.
[[nodiscard]] std::optional<RoutePolicy> parse_route_policy(
    std::string_view name);

struct FrontendConfig {
  /// Per-shard service configuration. `offered` and `seed` are global
  /// (the front-end owns the arrival stream); `jobs` counts the threads
  /// stepping every shard's instance chunks (one pool of `jobs - 1`
  /// workers plus the calling thread); `sample_every` drives the
  /// *aggregated* time series.
  ServiceConfig service{};
  int shards = 2;
  RoutePolicy route = RoutePolicy::kHashJobId;
};

/// One front-end run's result: the plain service's result type, with
/// `shard_of` and one `ShardSummary` per shard.
using FrontendResult = ServiceResult;

/// The front-end itself. Construct once; `run()` may be called
/// repeatedly — shards persist, so warm runs reuse every slot pool.
class ServiceFrontend {
 public:
  /// Throws `UnsupportedConfig` for mix templates the engine cannot
  /// execute and `JobWiderThanCap` for templates wider than the per-shard
  /// cap (the shards validate on construction).
  explicit ServiceFrontend(FrontendConfig config);
  ~ServiceFrontend();

  ServiceFrontend(const ServiceFrontend&) = delete;
  ServiceFrontend& operator=(const ServiceFrontend&) = delete;

  [[nodiscard]] FrontendResult run();

  [[nodiscard]] const FrontendConfig& config() const { return config_; }
  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }

 private:
  [[nodiscard]] int route(std::uint64_t id) const;

  FrontendConfig config_;
  std::vector<std::unique_ptr<AgreementService>> shards_;
  std::unique_ptr<sweep::ThreadPool> pool_;
};

/// One-shot convenience: construct, run once, return the result.
[[nodiscard]] FrontendResult run_frontend(const FrontendConfig& config);

}  // namespace da::service
