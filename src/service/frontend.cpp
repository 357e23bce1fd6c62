#include "service/frontend.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "sweep/sweep.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace da::service {

namespace {

const obs::Counter& routed_counter() {
  static const obs::Counter c("frontend.jobs_routed");
  return c;
}
const obs::Counter& frontend_ticks_counter() {
  static const obs::Counter c("frontend.ticks");
  return c;
}

}  // namespace

const char* to_string(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kHashJobId:
      return "hash";
    case RoutePolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "?";
}

std::optional<RoutePolicy> parse_route_policy(std::string_view name) {
  if (name == "hash") return RoutePolicy::kHashJobId;
  if (name == "least-loaded") return RoutePolicy::kLeastLoaded;
  return std::nullopt;
}

ServiceFrontend::ServiceFrontend(FrontendConfig config)
    : config_(std::move(config)) {
  DA_EXPECTS(config_.shards >= 1);
  mix_ = config_.service.mix.empty() ? default_mix() : config_.service.mix;
  const int jobs = sweep::resolve_jobs(config_.service.jobs);
  config_.service.jobs = jobs;
  // The one pool: each tick fans (shard, instance-chunk) tasks over it.
  if (jobs > 1) pool_ = std::make_unique<sweep::ThreadPool>(jobs);
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    ServiceConfig shard = config_.service;
    shard.mix = mix_;  // resolved once, so all shards share one mix view
    shard.seed = shard_seed(s);
    shards_.push_back(std::make_unique<AgreementService>(std::move(shard)));
  }
}

ServiceFrontend::~ServiceFrontend() = default;

std::uint64_t ServiceFrontend::shard_seed(int s) const {
  return mix64(config_.service.seed, mix64(static_cast<std::uint64_t>(s),
                                           0xf2));
}

int ServiceFrontend::route(std::uint64_t id) const {
  if (config_.route == RoutePolicy::kHashJobId) {
    return static_cast<int>(mix64(config_.service.seed, mix64(id, 0x5d)) %
                            shards_.size());
  }
  // Deterministic least-loaded: the router runs on the event-loop thread
  // between ticks, so every shard's load figure is settled; ties break
  // to the lowest index.
  int best = 0;
  int best_load = shards_[0]->load();
  for (int s = 1; s < static_cast<int>(shards_.size()); ++s) {
    const int load = shards_[static_cast<std::size_t>(s)]->load();
    if (load < best_load) {
      best = s;
      best_load = load;
    }
  }
  return best;
}

FrontendResult ServiceFrontend::run() {
  const obs::MetricsScope metrics_scope;
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t offered = config_.service.offered;
  const std::size_t nshards = shards_.size();
  std::vector<AgreementService*> shards;
  shards.reserve(nshards);
  for (const auto& shard : shards_) shards.push_back(shard.get());

  FrontendResult result;
  result.shard_of.assign(offered, 0);
  detail::DriveResult drive = detail::drive(
      shards, config_.service, pool_.get(), [&](std::uint64_t id) {
        const int s = route(id);
        result.shard_of[id] = s;
        return s;
      });
  routed_counter().add(offered);
  frontend_ticks_counter().add(drive.ticks);
  result.ticks = drive.ticks;
  result.samples = std::move(drive.samples);
  result.makespan = drive.makespan;
  // Fold the shards back into one stream: exact sketch merges, record
  // concat + sort by global id, span concat + the run's one canonical
  // sort.
  result.records.reserve(offered);
  std::vector<ServiceResult> parts;
  parts.reserve(nshards);
  std::size_t spans = 0;
  for (const auto& shard : shards_) {
    parts.push_back(shard->end_run(result.makespan));
    spans += parts.back().spans.size();
  }
  result.spans.reserve(spans);
  for (std::size_t s = 0; s < nshards; ++s) {
    ServiceResult& part = parts[s];
    FrontendShardSummary summary;
    summary.seed = shards_[s]->config().seed;
    summary.offered = part.records.size();
    summary.completed = part.completed;
    summary.shed = part.shed;
    summary.deadline_missed = part.deadline_missed;
    summary.peak_active = part.peak_active;
    result.shards.push_back(summary);
    result.completed += part.completed;
    result.shed += part.shed;
    result.deadline_missed += part.deadline_missed;
    result.violations += part.violations;
    result.latency_sketch.merge(part.latency_sketch);
    result.queue_sketch.merge(part.queue_sketch);
    for (int c = 0; c < kAdmissionClassCount; ++c) {
      result.class_latency[static_cast<std::size_t>(c)].merge(
          part.class_latency[static_cast<std::size_t>(c)]);
    }
    result.records.insert(result.records.end(), part.records.begin(),
                          part.records.end());
    result.spans.insert(result.spans.end(), part.spans.begin(),
                        part.spans.end());
    part.spans = {};
    obs::MetricsRegistry::global().set_gauge(
        "frontend.shard" + std::to_string(s) + ".completed",
        static_cast<double>(part.completed));
  }
  std::sort(result.records.begin(), result.records.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });
  obs::canonicalize(result.spans);
  obs::MetricsRegistry::global().set_gauge("frontend.shards",
                                           static_cast<double>(nshards));
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return result;
}

std::uint64_t FrontendResult::digest() const {
  // Everything deterministic about the run, excluding wall_ms: the merged
  // records plus each job's shard placement and the shard count.
  std::uint64_t h = mix64(0xf407e4d, records.size());
  h = mix64(h, static_cast<std::uint64_t>(shards.size()));
  for (const JobRecord& rec : records) {
    h = fold_job_record(h, rec);
    h = mix64(h, static_cast<std::uint64_t>(shard_of[rec.id]));
  }
  return h;
}

std::string FrontendResult::artifact() const {
  std::string out;
  out.reserve(records.size() * 112);
  for (const JobRecord& rec : records) append_record_line(out, rec);
  return out;
}

FrontendResult run_frontend(const FrontendConfig& config) {
  ServiceFrontend frontend(config);
  return frontend.run();
}

}  // namespace da::service
