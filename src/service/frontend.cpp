#include "service/frontend.hpp"

#include <string>
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
  const int jobs = sweep::resolve_jobs(config_.service.jobs);
  config_.service.jobs = jobs;
  // The one pool: each tick fans (shard, instance-chunk) tasks over its
  // workers and the calling thread.
  if (jobs > 1) pool_ = std::make_unique<sweep::ThreadPool>(jobs - 1);
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<AgreementService>(config_.service));
  }
}

ServiceFrontend::~ServiceFrontend() = default;

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
  std::vector<AgreementService*> shards;
  shards.reserve(shards_.size());
  for (const auto& shard : shards_) shards.push_back(shard.get());
  FrontendResult result =
      detail::run(shards, config_.service, pool_.get(),
                  [this](std::uint64_t id) { return route(id); });
  routed_counter().add(config_.service.offered);
  frontend_ticks_counter().add(result.ticks);
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    obs::MetricsRegistry::global().set_gauge(
        "frontend.shard" + std::to_string(s) + ".completed",
        static_cast<double>(result.shards[s].completed));
  }
  obs::MetricsRegistry::global().set_gauge(
      "frontend.shards", static_cast<double>(result.shards.size()));
  return result;
}

FrontendResult run_frontend(const FrontendConfig& config) {
  ServiceFrontend frontend(config);
  return frontend.run();
}

}  // namespace da::service
