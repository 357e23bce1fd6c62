// `frontend`: a 4-shard ServiceFrontend, overloaded, observed and injected.
//
// Hash routing, two cross-shard workers, small per-shard caps under the
// shed-oldest policy and roughly 1.5x more arrivals than the shards can
// drain, so the shed path runs all the time. The default mix keeps its
// three admission classes and the low-class template gets an admission
// deadline, so the deadline path runs too. Span recording and periodic
// samples are on, every third job runs under a seeded fault plan, and
// each cycle exports its spans with `spans_to_jsonl`: the timed cycle is
// run + export, so cost moved from recording into export still shows.
//
// The fault plan duplicates and delays messages but never drops them, so
// the paper's reliable-link hypothesis holds and no job may violate
// D.1-D.4. Shedding is the policy under test, not a failure. Set-up checks
// that each stream's digest is identical with one and with two workers;
// every cycle must reproduce it.
//
// The timed loop runs each round on one CPU (see CpuRotation): the two
// workers then share it with the event loop, so the pool's hand-offs are
// timed without the cross-CPU wake-ups whose cost the other tenants of a
// virtual machine decide.

#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "inject/fault_plan.hpp"
#include "obs/quantiles.hpp"
#include "obs/spans.hpp"
#include "probes.hpp"
#include "service/frontend.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kJobs = 1500;  // per stream run
constexpr std::uint64_t kInjectEvery = 3;
// Streams per round, each with its own seed drawn from the workload seed:
// the job mix of one 1,500-job stream varies from seed to seed by a few
// percent of its cost, and three streams average that out.
constexpr std::size_t kStreams = 3;

da::inject::FaultPlan fault_plan(std::uint64_t seed) {
  using da::inject::FaultKind;
  using da::inject::LinkRule;
  da::inject::FaultPlan plan;
  plan.seed = derive(seed, 0xfa17);
  plan.rules.push_back(LinkRule{da::kNoNode, 2, 1, FaultKind::kDuplicate, 2});
  plan.rules.push_back(LinkRule{1, da::kNoNode, 0, FaultKind::kDelay, 2});
  plan.rates.duplicate = 0.05;
  plan.rates.delay = 0.10;
  return plan;
}

da::service::FrontendConfig frontend_config(std::uint64_t seed, bool observed) {
  da::service::FrontendConfig config;
  config.shards = 4;
  config.route = da::service::RoutePolicy::kHashJobId;
  da::service::ServiceConfig& svc = config.service;
  svc.arrivals = da::service::ArrivalSpec::poisson(40.0);
  svc.offered = kJobs;
  svc.cap = 24;  // per shard
  svc.queue_cap = 32;
  svc.policy = da::service::OverloadPolicy::kShedOldest;
  svc.seed = seed;
  svc.jobs = 2;
  svc.mix = da::service::default_mix();
  for (auto& tmpl : svc.mix) {
    if (tmpl.admission == da::service::AdmissionClass::kLow) {
      tmpl.deadline = 3.0;
    }
  }
  svc.fault_plan = fault_plan(seed);
  svc.inject_every = kInjectEvery;
  if (observed) {
    svc.record_spans = true;
    svc.sample_every = 2.0;
  }
  return config;
}

class Frontend final : public Workload {
 public:
  explicit Frontend(std::uint64_t seed) {
    for (std::uint64_t k = 0; k < kStreams; ++k) {
      Stream& stream = streams_[k];
      stream.seed = derive(seed, 0xf00d + k);
      da::service::FrontendConfig config = frontend_config(stream.seed, true);
      config.service.jobs = 1;
      const std::uint64_t lone = da::service::run_frontend(config).digest();
      stream.frontend = std::make_unique<da::service::ServiceFrontend>(
          frontend_config(stream.seed, true));
      stream.reference = stream.frontend->run();
      if (stream.reference.digest() != lone) {
        throw std::runtime_error(
            "frontend: digest differs between 1 and 2 workers");
      }
      if (stream.reference.violations != 0) {
        throw std::runtime_error("frontend: reference run has violations");
      }
      // Keep the span counts, not the spans.
      da::service::FrontendResult& r = stream.reference;
      stream.spans = r.spans.size();
      for (const auto& span : r.spans) {
        if (span.name != "inst") continue;
        for (const auto& [key, value] : span.tags) {
          if (key.rfind("rule", 0) == 0) stream.rule_hits += value;
        }
      }
      decltype(r.spans)().swap(r.spans);
    }
    Pass warm;
    for (std::size_t k = 0; k < kStreams; ++k) cycle(warm, nullptr, 0, k);
    if (warm.failed != 0) throw std::runtime_error(warm.failure);
  }

  Pass run(const Budget& budget) override { return loop(budget, nullptr); }

  Pass trace(const Budget& budget, Tracer& tracer, Metrics& out) override;

 private:
  struct Stream {
    std::uint64_t seed = 0;
    std::unique_ptr<da::service::ServiceFrontend> frontend;
    da::service::FrontendResult reference;  // without its spans
    std::uint64_t spans = 0;
    std::uint64_t rule_hits = 0;  // scripted-rule hits, from `rule<k>` tags
  };

  /// A round is one cycle of each stream; its work is the jobs they
  /// complete.
  Pass round_pass() const {
    Pass pass;
    pass.ops_per_round = kStreams;
    for (const Stream& stream : streams_) {
      pass.work_per_round += static_cast<double>(stream.reference.completed);
    }
    return pass;
  }

  Pass loop(const Budget& budget, Tracer* tracer) {
    Pass pass = round_pass();
    CpuRotation cpus;
    const auto start = Clock::now();
    std::uint64_t op = 0;
    while (budget.more(ms_between(start, Clock::now()) / 1e3,
                       pass.op_ms.size())) {
      cpus.next();
      for (std::size_t k = 0; k < kStreams; ++k) cycle(pass, tracer, op++, k);
    }
    return pass;
  }

  /// One run + export cycle of stream k.
  void cycle(Pass& pass, Tracer* tracer, std::uint64_t op, std::size_t k) {
    Stream& stream = streams_[k];
    const auto t0 = Clock::now();
    da::service::FrontendResult result;
    std::size_t bytes = 0;
    {
      const Scope cycle_span(tracer, span_cycle_, op);
      {
        const Scope s(tracer, span_run_, op);
        result = stream.frontend->run();
      }
      const Scope s(tracer, span_export_, op);
      bytes = da::obs::spans_to_jsonl(std::move(result.spans)).size();
    }
    pass.add_op(ms_between(t0, Clock::now()));
    pass.attempted += kJobs;
    if (result.digest() != stream.reference.digest() || bytes == 0) {
      pass.fail("frontend: cycle digest differs from the set-up run");
      pass.failed += kJobs - 1;
    } else if (result.violations != 0) {
      pass.fail("frontend: " + std::to_string(result.violations) +
                " violating jobs");
      pass.failed += result.violations - 1;
    }
  }

  std::array<Stream, kStreams> streams_;
  std::uint32_t span_cycle_ = 0;
  std::uint32_t span_run_ = 0;
  std::uint32_t span_export_ = 0;
};

Pass Frontend::trace(const Budget& budget, Tracer& tracer, Metrics& out) {
  span_cycle_ = tracer.intern("frontend.cycle");
  span_run_ = tracer.intern("service.ServiceFrontend::run");
  span_export_ = tracer.intern("obs.spans_to_jsonl");
  const Pass plain = loop(with_tail(budget, 0.90), nullptr);
  put_op_percentiles(out, "frontend.cycle_ms", plain, 0.90);

  // The same streams with recording, sampling and export off.
  std::vector<std::unique_ptr<da::service::ServiceFrontend>> quiet;
  for (const Stream& stream : streams_) {
    quiet.push_back(std::make_unique<da::service::ServiceFrontend>(
        frontend_config(stream.seed, false)));
  }
  Pass quiet_pass = round_pass();
  {
    const auto start = Clock::now();
    while (budget.more(ms_between(start, Clock::now()) / 1e3,
                       quiet_pass.op_ms.size())) {
      for (std::size_t k = 0; k < kStreams; ++k) {
        const auto t0 = Clock::now();
        const da::service::FrontendResult r = quiet[k]->run();
        quiet_pass.add_op(ms_between(t0, Clock::now()));
        if (r.completed != streams_[k].reference.completed) {
          throw std::runtime_error("frontend: quiet run completed other jobs");
        }
      }
    }
  }

  const Pass traced = loop(budget, &tracer);

  // Both cycle times are read at their fast end (see Pass).
  const double quiet_cycle = quiet_pass.fast_op_ms();
  out.put("frontend.quiet_cycle_ms", quiet_cycle, "ms");
  out.put("obs.record_share", 1.0 - quiet_cycle / plain.fast_op_ms(),
          "ratio");
  out.put("obs.spans_jsonl_ms", median(tracer.durations_ms("obs.spans_to_jsonl")),
          "ms");
  da::obs::QuantileSketch merged;
  out.put("obs.sketch_merge_us", per_call(7, 2000, 1e6, [&] {
            merged.merge(streams_[0].reference.latency_sketch);
          }),
          "us");
  // Counts per stream run, over the streams' set-up runs.
  double spans = 0.0;
  double ticks = 0.0;
  double shed = 0.0;
  double missed = 0.0;
  double hits = 0.0;
  for (const Stream& stream : streams_) {
    const da::service::FrontendResult& r = stream.reference;
    spans += static_cast<double>(stream.spans);
    ticks += static_cast<double>(r.ticks);
    shed += static_cast<double>(r.shed);
    missed += static_cast<double>(r.deadline_missed);
    hits += static_cast<double>(stream.rule_hits);
  }
  const double jobs = static_cast<double>(kStreams * kJobs);
  const double injected =
      static_cast<double>(kStreams * ((kJobs + kInjectEvery - 1) / kInjectEvery));
  out.put("obs.spans_per_job", spans / jobs, "count");
  out.put("frontend.ticks_per_run", ticks / kStreams, "count");
  out.put("frontend.shed_share", shed / jobs, "ratio");
  out.put("frontend.deadline_missed_share", missed / jobs, "ratio");
  out.put("inject.rule_hits_per_job", hits / injected, "count");
  out.put("trace.overhead_share.frontend", overhead_share(plain, traced),
          "ratio");
  return traced;
}

}  // namespace

std::unique_ptr<Workload> make_frontend(std::uint64_t seed) {
  return std::make_unique<Frontend>(seed);
}

}  // namespace perfbench
