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
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "service/frontend.hpp"
#include "service/service.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "service_demo: %s\n", msg);
  std::fprintf(stderr,
               "usage: service_demo [--model poisson|bursty|pareto] "
               "[--rate R] [--offered N] [--cap C] [--queue Q] "
               "[--policy shed|block] [--period P] [--seed S] [--jobs J] "
               "[--shards N] [--route hash|least-loaded] [--deadline T] "
               "[--artifact] [--spans-out FILE] [--metrics-out FILE] "
               "[--sample-every P] [--inject SPEC] [--inject-every K]\n");
  std::exit(2);
}

double parse_positive(const char* flag, const char* arg) {
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || v <= 0.0) usage(flag);
  return v;
}

/// Counts take positive integers only: a fraction, zero, a sign, trailing
/// text or a value above `max` is a usage error, never a silent
/// truncation.
std::uint64_t parse_count(const char* flag, const char* arg,
                          std::uint64_t max) {
  const char* last = arg + std::strlen(arg);
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(arg, last, v);
  if (ec != std::errc{} || end != last || v == 0 || v > max) usage(flag);
  return v;
}

/// Constructs the service or the front-end. A mix template wider than
/// --cap could never be admitted, and spans recorded under an --inject
/// plan with more outcomes and rules than a span can tag would be
/// truncated, so both are usage errors.
template <typename Service, typename Config>
Service make_or_usage(const Config& config) {
  try {
    return Service(config);
  } catch (const da::service::JobWiderThanCap& e) {
    usage(e.what());
  } catch (const da::service::TooManySpanTags& e) {
    usage(e.what());
  }
}

constexpr auto kIntMax =
    static_cast<std::uint64_t>(std::numeric_limits<int>::max());
constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();

}  // namespace

int main(int argc, char** argv) {
  using namespace da::service;

  ServiceConfig config;
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate = 8.0;
  int shards = 1;
  RoutePolicy route = RoutePolicy::kHashJobId;
  double deadline = 0.0;
  bool dump_artifact = false;
  const char* spans_out = nullptr;
  const char* metrics_out = nullptr;

  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(flag);
      return argv[++i];
    };
    if (std::strcmp(flag, "--model") == 0) {
      const auto parsed = parse_arrival_kind(next());
      if (!parsed.has_value()) usage("--model expects poisson|bursty|pareto");
      kind = *parsed;
    } else if (std::strcmp(flag, "--rate") == 0) {
      rate = parse_positive("--rate expects a positive number", next());
    } else if (std::strcmp(flag, "--offered") == 0) {
      config.offered =
          parse_count("--offered expects a positive count", next(), kU64Max);
    } else if (std::strcmp(flag, "--cap") == 0) {
      config.cap = static_cast<int>(
          parse_count("--cap expects a positive count", next(), kIntMax));
    } else if (std::strcmp(flag, "--queue") == 0) {
      config.queue_cap = static_cast<std::size_t>(
          parse_count("--queue expects a positive count", next(), kU64Max));
    } else if (std::strcmp(flag, "--policy") == 0) {
      const char* p = next();
      if (std::strcmp(p, "shed") == 0) {
        config.policy = OverloadPolicy::kShedOldest;
      } else if (std::strcmp(p, "block") == 0) {
        config.policy = OverloadPolicy::kBlock;
      } else {
        usage("--policy expects shed|block");
      }
    } else if (std::strcmp(flag, "--period") == 0) {
      config.round_period =
          parse_positive("--period expects a positive number", next());
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = static_cast<std::uint64_t>(
          std::strtoull(next(), nullptr, 10));
    } else if (std::strcmp(flag, "--jobs") == 0) {
      config.jobs = std::atoi(next());
    } else if (std::strcmp(flag, "--shards") == 0) {
      shards = static_cast<int>(
          parse_count("--shards expects a positive count", next(), kIntMax));
    } else if (std::strcmp(flag, "--route") == 0) {
      const auto parsed = parse_route_policy(next());
      if (!parsed.has_value()) usage("--route expects hash|least-loaded");
      route = *parsed;
    } else if (std::strcmp(flag, "--deadline") == 0) {
      deadline =
          parse_positive("--deadline expects a positive number", next());
    } else if (std::strcmp(flag, "--artifact") == 0) {
      dump_artifact = true;
    } else if (std::strcmp(flag, "--spans-out") == 0) {
      spans_out = next();
      config.record_spans = true;
    } else if (std::strcmp(flag, "--metrics-out") == 0) {
      metrics_out = next();
    } else if (std::strcmp(flag, "--sample-every") == 0) {
      config.sample_every =
          parse_positive("--sample-every expects a positive number", next());
    } else if (std::strcmp(flag, "--inject") == 0) {
      // Plan lines separated by ';' (the multi-line text form of
      // docs/INJECTION.md, flattened for the shell).
      std::string text = next();
      for (char& c : text) {
        if (c == ';') c = '\n';
      }
      const auto plan = da::inject::FaultPlan::parse(text);
      if (!plan.has_value()) {
        std::fprintf(stderr, "service_demo: --inject: %s\n",
                     plan.error().to_string().c_str());
        return 2;
      }
      config.fault_plan = *plan;
    } else if (std::strcmp(flag, "--inject-every") == 0) {
      config.inject_every = parse_count(
          "--inject-every expects a positive count", next(), kU64Max);
    } else {
      usage(flag);
    }
  }

  switch (kind) {
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

  // Fold the per-job outcomes into one by-class table (offered /
  // completed / shed / deadline-missed per admission class).
  struct ClassRow {
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t missed = 0;
  };
  std::array<ClassRow, kAdmissionClassCount> by_class{};
  const auto tally = [&by_class](const std::vector<JobRecord>& records) {
    for (const JobRecord& rec : records) {
      ClassRow& row = by_class[static_cast<std::size_t>(index_of(rec.admission))];
      ++row.offered;
      if (rec.shed) {
        ++row.shed;
        if (rec.deadline_missed) ++row.missed;
      } else if (rec.completed >= 0.0) {
        ++row.completed;
      }
    }
  };
  const auto print_classes = [&by_class] {
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
  };
  const auto write_outputs = [&](const std::vector<da::obs::Span>& spans,
                                 std::size_t samples) {
    if (spans_out != nullptr) {
      if (!da::obs::write_spans_jsonl(spans, spans_out)) {
        std::fprintf(stderr, "service_demo: cannot write %s\n", spans_out);
        return false;
      }
      std::printf("spans      %zu -> %s\n", spans.size(), spans_out);
    }
    if (metrics_out != nullptr) {
      if (!da::obs::write_exposition(
              da::obs::MetricsRegistry::global().snapshot(), metrics_out)) {
        std::fprintf(stderr, "service_demo: cannot write %s\n", metrics_out);
        return false;
      }
      std::printf("metrics    -> %s\n", metrics_out);
    }
    if (config.sample_every > 0.0) {
      std::printf("samples    %zu (every %g time units)\n", samples,
                  config.sample_every);
    }
    return true;
  };

  if (shards > 1) {
    // Sharded front-end path: one global arrival stream and tick grid
    // over N independent service shards.
    FrontendConfig frontend_config;
    frontend_config.service = config;
    frontend_config.shards = shards;
    frontend_config.route = route;
    ServiceFrontend frontend =
        make_or_usage<ServiceFrontend>(frontend_config);
    const FrontendResult result = frontend.run();
    tally(result.records);

    std::printf("frontend: %s  shards=%d route=%s cap=%d queue=%zu "
                "policy=%s period=%g seed=%llu jobs=%d\n",
                config.arrivals.to_string().c_str(), shards,
                to_string(route), config.cap, config.queue_cap,
                to_string(config.policy), config.round_period,
                static_cast<unsigned long long>(config.seed), config.jobs);
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
    std::printf("throughput %.3f jobs/time unit\n", result.throughput());
    std::printf("latency    p50 %.3f  p90 %.3f  p99 %.3f time units\n",
                result.latency_sketch.quantile(0.50),
                result.latency_sketch.quantile(0.90),
                result.latency_sketch.quantile(0.99));
    print_classes();
    for (std::size_t s = 0; s < result.shards.size(); ++s) {
      const FrontendShardSummary& shard = result.shards[s];
      std::printf("shard      %zu offered %llu  completed %llu  shed %llu  "
                  "peak_active %d\n",
                  s, static_cast<unsigned long long>(shard.offered),
                  static_cast<unsigned long long>(shard.completed),
                  static_cast<unsigned long long>(shard.shed),
                  shard.peak_active);
    }
    std::printf("digest     %016llx\n",
                static_cast<unsigned long long>(result.digest()));
    if (dump_artifact) std::fputs(result.artifact().c_str(), stdout);
    if (!write_outputs(result.spans, result.samples.size())) return 1;
    return result.violations == 0 ? 0 : 1;
  }

  AgreementService svc = make_or_usage<AgreementService>(config);
  const ServiceResult result = svc.run();
  tally(result.records);

  std::printf("service: %s  cap=%d queue=%zu policy=%s period=%g seed=%llu "
              "jobs=%d\n",
              config.arrivals.to_string().c_str(), config.cap,
              config.queue_cap, to_string(config.policy), config.round_period,
              static_cast<unsigned long long>(config.seed), config.jobs);
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
  print_classes();
  std::printf("slots      created %llu  reused %llu\n",
              static_cast<unsigned long long>(svc.slots_created()),
              static_cast<unsigned long long>(svc.slot_reuses()));
  std::printf("digest     %016llx\n",
              static_cast<unsigned long long>(result.digest()));
  if (dump_artifact) std::fputs(result.artifact().c_str(), stdout);
  if (!write_outputs(result.spans, result.samples.size())) return 1;

  return result.violations == 0 ? 0 : 1;
}
