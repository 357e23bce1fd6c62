// Drive the long-lived agreement service (src/service/) from the command
// line: an open-loop arrival stream of BYZ/IC jobs admitted against a
// concurrency cap and executed in batched round ticks.
//
//   service_demo [flags]
//     --model poisson|bursty|pareto   arrival model       (poisson)
//     --rate R                        mean jobs/time unit (8.0)
//     --offered N                     jobs to offer       (1000)
//     --cap C                         concurrency cap, in slots (256)
//     --queue Q                       queue bound for shed-oldest (1024)
//     --policy shed|block             overload policy     (shed)
//     --period P                      virtual time per round tick (1.0)
//     --seed S                        arrival/mix seed    (1)
//     --jobs J                        worker threads, 0 = all cores (1)
//     --shards N                      front-end shards, 1 = plain service (1)
//     --route hash|least-loaded       front-end routing   (hash)
//     --deadline T                    admission deadline on every template,
//                                     in virtual time (0 = none)
//     --artifact                      dump the per-job artifact lines
//     --spans-out FILE                record causal spans, write JSONL
//     --metrics-out FILE              write Prometheus-style exposition
//     --sample-every P                periodic samples every P time units
//     --inject "SPEC"                 fault plan, ';'-separated plan lines
//                                     (e.g. "seed 9;drop from=2 to=1")
//     --inject-every K                inject every K-th job (1)
//
// Prints a one-screen summary (throughput, latency quantiles, per-class
// shed counts, determinism digest; per-shard rows when --shards > 1).
// Exit status is 0 iff every completed job satisfied its applicable
// condition (D.1-D.4). docs/SERVICE.md walks through the output;
// tools/docs_check.sh --service-demo executes that walkthrough.

#include <array>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "service/frontend.hpp"
#include "service/service.hpp"
#include "util/parse.hpp"

namespace {

constexpr const char* kUsage =
    "usage: service_demo [--model poisson|bursty|pareto] [--rate R] "
    "[--offered N] [--cap C] [--queue Q] [--policy shed|block] [--period P] "
    "[--seed S] [--jobs J] [--shards N] [--route hash|least-loaded] "
    "[--deadline T] [--artifact] [--spans-out FILE] [--metrics-out FILE] "
    "[--sample-every P] [--inject SPEC] [--inject-every K]";

/// Constructs the service or the front-end. A mix template wider than
/// --cap could never be admitted, and spans recorded under an --inject
/// plan with more outcomes and rules than a span can tag would be
/// truncated, so both are usage errors.
template <typename Service, typename Config>
Service make_or_usage(const Config& config, const da::ArgReader& reader) {
  try {
    return Service(config);
  } catch (const da::service::JobWiderThanCap& e) {
    reader.refuse(e.what());
  } catch (const da::service::TooManySpanTags& e) {
    reader.refuse(e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace da::service;
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();

  ServiceConfig config;
  std::string model = "poisson";
  double rate = 8.0;
  int shards = 1;
  std::string route_name = "hash";
  double deadline = 0.0;
  bool dump_artifact = false;
  std::string spans_out;
  std::string metrics_out;
  std::string inject;

  da::ArgReader reader("service_demo", kUsage);
  reader
      .text("--model", model)
      .real("--rate", rate)
      .integer<std::uint64_t>("--offered", config.offered, 1, kU64Max)
      .integer("--cap", config.cap, 1, kIntMax)
      .integer<std::size_t>("--queue", config.queue_cap, 1, kU64Max)
      .choice("--policy", config.policy,
              {{"shed", OverloadPolicy::kShedOldest},
               {"block", OverloadPolicy::kBlock}})
      .real("--period", config.round_period)
      .integer<std::uint64_t>("--seed", config.seed, 0, kU64Max)
      .integer("--jobs", config.jobs, 0, da::kMaxJobs)
      .integer("--shards", shards, 1, kIntMax)
      .text("--route", route_name)
      .real("--deadline", deadline)
      .flag("--artifact", dump_artifact)
      .text("--spans-out", spans_out)
      .text("--metrics-out", metrics_out)
      .real("--sample-every", config.sample_every)
      .text("--inject", inject)
      .integer<std::uint64_t>("--inject-every", config.inject_every, 1,
                              kU64Max);
  reader.read(argc, argv);
  const auto kind = parse_arrival_kind(model);
  if (!kind) reader.fail("--model", "one of poisson|bursty|pareto");
  const auto route = parse_route_policy(route_name);
  if (!route) reader.fail("--route", "one of hash|least-loaded");
  config.record_spans = !spans_out.empty();
  if (!inject.empty()) {
    // Plan lines separated by ';' (the multi-line text form of
    // docs/INJECTION.md, flattened for the shell).
    for (char& c : inject) {
      if (c == ';') c = '\n';
    }
    const auto plan = da::inject::FaultPlan::parse(inject);
    if (!plan.has_value()) {
      std::fprintf(stderr, "service_demo: --inject: %s\n",
                   plan.error().to_string().c_str());
      return 2;
    }
    config.fault_plan = *plan;
  }

  switch (*kind) {
    case ArrivalKind::kPoisson:
      config.arrivals = ArrivalSpec::poisson(rate);
      break;
    case ArrivalKind::kBursty:
      config.arrivals = ArrivalSpec::bursty(rate);
      break;
    case ArrivalKind::kPareto:
      config.arrivals = ArrivalSpec::pareto(rate);
      break;
  }

  // --deadline rides on the resolved default mix: every template gets the
  // same relative admission deadline.
  if (deadline > 0.0) {
    config.mix = default_mix();
    for (JobTemplate& tmpl : config.mix) tmpl.deadline = deadline;
  }

  // The one-screen summary of either run, after its header line:
  // `detail_rows` prints the slot-pool row (plain service) or the
  // per-shard rows (front-end) between the class rows and the digest.
  const auto summarize = [&](const ServiceResult& result,
                             const auto& detail_rows) {
    std::printf("offered    %llu jobs\n",
                static_cast<unsigned long long>(config.offered));
    std::printf("completed  %llu   shed %llu   deadline_missed %llu   "
                "violations %llu\n",
                static_cast<unsigned long long>(result.completed),
                static_cast<unsigned long long>(result.shed),
                static_cast<unsigned long long>(result.deadline_missed),
                static_cast<unsigned long long>(result.violations));
    std::printf("makespan   %.3f time units over %llu ticks  (%.1f ms wall)\n",
                result.makespan, static_cast<unsigned long long>(result.ticks),
                result.wall_ms);
    std::printf("throughput %.3f jobs/time unit   peak_active %d slots\n",
                result.throughput(), result.peak_active);
    std::printf("latency    p50 %.3f  p90 %.3f  p99 %.3f time units\n",
                result.latency_quantile(0.50), result.latency_quantile(0.90),
                result.latency_quantile(0.99));
    // Per admission class: offered / completed / shed / deadline-missed.
    struct ClassRow {
      std::uint64_t offered = 0;
      std::uint64_t completed = 0;
      std::uint64_t shed = 0;
      std::uint64_t missed = 0;
    };
    std::array<ClassRow, kAdmissionClassCount> by_class{};
    for (const JobRecord& rec : result.records) {
      ClassRow& row = by_class[static_cast<std::size_t>(index_of(rec.admission))];
      ++row.offered;
      if (rec.shed) {
        ++row.shed;
        if (rec.deadline_missed) ++row.missed;
      } else if (rec.completed >= 0.0) {
        ++row.completed;
      }
    }
    for (int c = 0; c < kAdmissionClassCount; ++c) {
      const ClassRow& row = by_class[static_cast<std::size_t>(c)];
      if (row.offered == 0) continue;
      std::printf("class      %-6s offered %llu  completed %llu  shed %llu  "
                  "deadline_missed %llu\n",
                  to_string(static_cast<AdmissionClass>(c)),
                  static_cast<unsigned long long>(row.offered),
                  static_cast<unsigned long long>(row.completed),
                  static_cast<unsigned long long>(row.shed),
                  static_cast<unsigned long long>(row.missed));
    }
    detail_rows();
    std::printf("digest     %016llx\n",
                static_cast<unsigned long long>(result.digest()));
    if (dump_artifact) std::fputs(result.artifact().c_str(), stdout);
    if (!spans_out.empty()) {
      if (!da::obs::write_spans_jsonl(result.spans, spans_out)) {
        std::fprintf(stderr, "service_demo: cannot write %s\n",
                     spans_out.c_str());
        return 1;
      }
      std::printf("spans      %zu -> %s\n", result.spans.size(),
                  spans_out.c_str());
    }
    if (!metrics_out.empty()) {
      if (!da::obs::write_exposition(
              da::obs::MetricsRegistry::global().snapshot(), metrics_out)) {
        std::fprintf(stderr, "service_demo: cannot write %s\n",
                     metrics_out.c_str());
        return 1;
      }
      std::printf("metrics    -> %s\n", metrics_out.c_str());
    }
    if (config.sample_every > 0.0) {
      std::printf("samples    %zu (every %g time units)\n",
                  result.samples.size(), config.sample_every);
    }
    return result.violations == 0 ? 0 : 1;
  };

  if (shards > 1) {
    // Sharded front-end path: one global arrival stream and tick grid
    // over N independent service shards.
    FrontendConfig frontend_config;
    frontend_config.service = config;
    frontend_config.shards = shards;
    frontend_config.route = *route;
    ServiceFrontend frontend =
        make_or_usage<ServiceFrontend>(frontend_config, reader);
    const ServiceResult result = frontend.run();
    std::printf("frontend: %s  shards=%d route=%s cap=%d queue=%zu "
                "policy=%s period=%g seed=%llu jobs=%d\n",
                config.arrivals.to_string().c_str(), shards,
                to_string(*route), config.cap, config.queue_cap,
                to_string(config.policy), config.round_period,
                static_cast<unsigned long long>(config.seed), config.jobs);
    return summarize(result, [&result] {
      for (std::size_t s = 0; s < result.shards.size(); ++s) {
        const ShardSummary& shard = result.shards[s];
        std::printf("shard      %zu offered %llu  completed %llu  shed %llu  "
                    "peak_active %d\n",
                    s, static_cast<unsigned long long>(shard.offered),
                    static_cast<unsigned long long>(shard.completed),
                    static_cast<unsigned long long>(shard.shed),
                    shard.peak_active);
      }
    });
  }

  AgreementService svc = make_or_usage<AgreementService>(config, reader);
  const ServiceResult result = svc.run();
  std::printf("service: %s  cap=%d queue=%zu policy=%s period=%g seed=%llu "
              "jobs=%d\n",
              config.arrivals.to_string().c_str(), config.cap,
              config.queue_cap, to_string(config.policy), config.round_period,
              static_cast<unsigned long long>(config.seed), config.jobs);
  return summarize(result, [&svc] {
    std::printf("slots      created %llu  reused %llu\n",
                static_cast<unsigned long long>(svc.slots_created()),
                static_cast<unsigned long long>(svc.slot_reuses()));
  });
}
