#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/quantiles.hpp"
#include "obs/spans.hpp"
#include "service/service.hpp"
#include "sweep/thread_pool.hpp"

namespace da::service {

/// The sharded front-end (docs/SERVICE.md §"Sharded front-end"): N
/// independent `AgreementService` shards behind one deterministic router
/// and one global virtual-time event loop. The front-end owns the arrival
/// stream and the per-job draws (template, adversary — the same pure
/// functions of (seed, global id) the single service uses), routes each
/// arrival to a shard, and drives every shard's round ticks in lockstep
/// on one global tick grid — the same event loop (`detail::drive`) that
/// `AgreementService::run()` runs over one shard. Draining is batched on
/// one sweep `ThreadPool` (`FrontendConfig::service.jobs > 1`): shards
/// touch disjoint state, so a tick is one fork-join round of (shard,
/// instance-chunk) chunks across all of them.
///
/// Determinism contract, extended: for a fixed (config, shard count,
/// route policy), every field of `FrontendResult` except `wall_ms` —
/// merged records, per-shard placement, merged and per-class quantile
/// sketches — is identical for every `jobs` value (`digest()` pins it).
/// And because shards are driven by the very loop `AgreementService::run()`
/// uses (one global tick grid, arrival-first tie-break, class-aware
/// admission inside each shard), an
/// *uncongested* front-end stream is record-identical to the
/// single-service baseline: sharding only redistributes queueing, never
/// outcomes.
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
  /// (the front-end owns the arrival stream); `jobs` sizes the one pool
  /// that drains every shard's instance chunks; `sample_every` drives the
  /// *aggregated* time series.
  ServiceConfig service{};
  int shards = 2;
  RoutePolicy route = RoutePolicy::kHashJobId;
};

/// Per-shard slice of one front-end run.
struct FrontendShardSummary {
  std::uint64_t seed = 0;  // the shard's derived seed
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_missed = 0;
  int peak_active = 0;
};

/// Aggregate of one front-end run: the shard results exact-merged back
/// into one stream.
struct FrontendResult {
  std::vector<JobRecord> records;  // by global job id
  std::vector<int> shard_of;       // routing decision, by global job id
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t violations = 0;
  double makespan = 0.0;
  /// Wall-clock time (the only nondeterministic field).
  double wall_ms = 0.0;
  /// Global tick-grid instants driven (each may tick several shards).
  std::uint64_t ticks = 0;
  std::vector<FrontendShardSummary> shards;
  /// Aggregated time series on the global `sample_every` grid (sums over
  /// shards; latency quantiles over the exact-merged running sketches).
  std::vector<ServiceSample> samples;
  /// Concatenated per-shard spans in canonical order, sorted once after
  /// the concatenation (global job ids keep the shards' spans disjoint).
  std::vector<obs::Span> spans;
  /// Exact merges of the per-shard sketches: associative/commutative
  /// bucket adds, so `serialize()` is byte-identical across `jobs`.
  obs::QuantileSketch latency_sketch{};
  obs::QuantileSketch queue_sketch{};
  std::array<obs::QuantileSketch, kAdmissionClassCount> class_latency{};

  [[nodiscard]] double throughput() const {
    return makespan <= 0.0 ? 0.0
                           : static_cast<double>(completed) / makespan;
  }
  /// Jobs-invariant fold of every record plus its shard placement.
  [[nodiscard]] std::uint64_t digest() const;
  /// Canonical per-job artifact in the *same* line format as
  /// `ServiceResult::artifact()` (no shard column), so an uncongested
  /// front-end run can be compared to the single-service baseline byte
  /// for byte. Shard placement is covered by `digest()` and `shard_of`.
  [[nodiscard]] std::string artifact() const;
};

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
  /// The derived seed shard `s` was constructed with.
  [[nodiscard]] std::uint64_t shard_seed(int s) const;

 private:
  [[nodiscard]] int route(std::uint64_t id) const;

  FrontendConfig config_;
  std::vector<JobTemplate> mix_;
  std::vector<std::unique_ptr<AgreementService>> shards_;
  std::unique_ptr<sweep::ThreadPool> pool_;
};

/// One-shot convenience: construct, run once, return the result.
[[nodiscard]] FrontendResult run_frontend(const FrontendConfig& config);

}  // namespace da::service
