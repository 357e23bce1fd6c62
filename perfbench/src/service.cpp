// `service`: one warm AgreementService on a long Poisson stream.
//
// Default mix, Poisson arrivals at 400 jobs per round, block policy, cap
// 2048, one worker, quiet telemetry. A run offers kJobs jobs, enough that
// the active count sits on a plateau near 1.5k instances for ~100 ticks
// with only a few ticks of ramp at either end. The benchmark drives the
// service through begin_run / offer_job / step / end_run (the primitives
// `run()` is built on) so that every tick is timed on its own; the arrival
// times and per-job draws are generated from the seed before timing. Every
// run replays the same stream, so tick k of every run does the same work.
//
// Every run's digest must equal the digest `run()` produces for the same
// configuration, with no job shed and no D.1-D.4 violation.

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "probes.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kJobs = 40000;
constexpr double kNever = std::numeric_limits<double>::infinity();

class Service final : public Workload {
 public:
  explicit Service(std::uint64_t seed) {
    config_.arrivals = da::service::ArrivalSpec::poisson(400.0);
    config_.offered = kJobs;
    config_.cap = 2048;
    config_.policy = da::service::OverloadPolicy::kBlock;
    config_.seed = seed;
    config_.jobs = 1;
    service_ = std::make_unique<da::service::AgreementService>(config_);
    // The self-driven run is the reference the driven loop must match; it
    // also builds every slot the plateau needs.
    reference_ = service_->run();
    if (reference_.violations != 0 || reference_.shed != 0 ||
        reference_.completed != kJobs) {
      throw std::runtime_error("service: reference run is not clean");
    }
    da::service::ArrivalGenerator gen(config_.arrivals, seed);
    arrivals_.reserve(kJobs);
    offers_.reserve(kJobs);
    const auto& mix = service_->mix();
    for (std::uint64_t id = 0; id < kJobs; ++id) {
      arrivals_.push_back(gen.next());
      da::service::JobOffer offer;
      offer.id = id;
      offer.template_index =
          da::service::draw_template_index(seed, id, mix.size());
      offer.adversary_index = da::service::draw_adversary_index(
          seed, id, service_->adversary_count());
      offers_.push_back(offer);
    }
    Pass warm;
    driven(warm, nullptr, 0);
    if (warm.failed != 0) throw std::runtime_error(warm.failure);
    ticks_per_run_ = warm.op_ms.size();
  }

  Pass run(const Budget& budget) override { return loop(budget, nullptr); }

  Pass trace(const Budget& budget, Tracer& tracer, Metrics& out) override;

 private:
  /// One driven run: `run()`'s event loop with every tick timed.
  void driven(Pass& pass, Tracer* tracer, std::uint64_t op) {
    da::service::AgreementService& svc = *service_;
    const double period = config_.round_period;
    const std::size_t first_tick = pass.op_ms.size();
    const auto t0 = Clock::now();
    auto last = t0;  // end of the previous tick
    da::service::ServiceResult result;
    {
      const Scope run_span(tracer, span_run_, op);
      {
        const Scope s(tracer, span_begin_, op);
        svc.begin_run(kJobs);
      }
      std::uint64_t arrived = 0;
      double next_arrival = arrivals_[0];
      double next_tick = kNever;
      double now = 0.0;
      while (svc.finished() < kJobs) {
        if (arrived < kJobs && next_arrival <= next_tick) {
          // Arrival first on ties, as in run().
          now = next_arrival;
          {
            const Scope s(tracer, span_offer_, op);
            svc.offer_job(offers_[arrived], now);
          }
          ++arrived;
          next_arrival = arrived < kJobs ? arrivals_[arrived] : kNever;
          if (!svc.idle() && next_tick == kNever) next_tick = now + period;
          continue;
        }
        now = next_tick;
        if (tracer != nullptr) active_.push_back(svc.active_width());
        const auto s0 = Clock::now();
        {
          const Scope s(tracer, span_step_, op);
          svc.step(now);
        }
        const auto s1 = Clock::now();
        pass.op_ms.push_back(ms_between(s0, s1));
        pass.cover_ms.push_back(ms_between(last, s1));
        last = s1;
        next_tick = svc.idle() ? kNever : now + period;
      }
      const Scope s(tracer, span_end_, op);
      result = svc.end_run(now);
    }
    const auto t1 = Clock::now();
    pass.cover_ms.back() += ms_between(last, t1);  // end_run
    if (tracer == nullptr) run_ms_.push_back(ms_between(t0, t1));
    pass.attempted += kJobs;
    const std::uint64_t bad = result.shed + result.violations;
    if (ticks_per_run_ != 0 &&
        pass.op_ms.size() - first_tick != ticks_per_run_) {
      pass.fail("service: a driven run took another number of ticks");
      pass.failed += kJobs - 1;
    } else if (result.digest() != reference_.digest()) {
      pass.fail("service: driven-loop digest differs from run()'s");
      pass.failed += kJobs - 1;
    } else if (bad != 0) {
      pass.fail("service: " + std::to_string(result.shed) + " shed, " +
                std::to_string(result.violations) + " violating jobs");
      pass.failed += bad - 1;
    }
  }

  /// A round is one run; its operations are its ticks (each covering the
  /// offers before it, the last also end_run) and its work is kJobs.
  Pass loop(const Budget& budget, Tracer* tracer) {
    Pass pass;
    pass.ops_per_round = ticks_per_run_;
    pass.work_per_round = static_cast<double>(kJobs);
    CpuRotation cpus;
    const auto start = Clock::now();
    std::uint64_t op = 0;
    while (budget.more(ms_between(start, Clock::now()) / 1e3,
                       pass.op_ms.size())) {
      cpus.next();
      driven(pass, tracer, op++);
    }
    return pass;
  }

  da::service::ServiceConfig config_;
  std::unique_ptr<da::service::AgreementService> service_;
  da::service::ServiceResult reference_;
  std::vector<double> arrivals_;
  std::vector<da::service::JobOffer> offers_;
  std::vector<int> active_;  // active slot width before each traced step
  std::vector<double> run_ms_;  // wall time of each untraced run
  std::size_t ticks_per_run_ = 0;  // set by the warm run
  std::uint32_t span_run_ = 0;
  std::uint32_t span_begin_ = 0;
  std::uint32_t span_offer_ = 0;
  std::uint32_t span_step_ = 0;
  std::uint32_t span_end_ = 0;
};

Pass Service::trace(const Budget& budget, Tracer& tracer, Metrics& out) {
  span_run_ = tracer.intern("service.run");
  span_begin_ = tracer.intern("service.begin_run");
  span_offer_ = tracer.intern("service.offer_job");
  span_step_ = tracer.intern("service.step");
  span_end_ = tracer.intern("service.end_run");

  const std::uint64_t slots_before = service_->slots_created();
  run_ms_.clear();
  const Pass plain = loop(with_tail(budget, 0.99), nullptr);
  put_op_percentiles(out, "service.tick_ms", plain, 0.99);
  active_.clear();
  const std::uint64_t rounds_before = counter("service.rounds_driven");
  const Pass traced = loop(budget, &tracer);
  const double runs = static_cast<double>(traced.attempted / kJobs);
  const double rounds =
      static_cast<double>(counter("service.rounds_driven") - rounds_before);

  std::vector<double> offer_us = tracer.durations_ms("service.offer_job");
  for (double& v : offer_us) v *= 1e3;
  out.put("service.offer_us.p50", median(offer_us), "us");
  out.put("service.offer_us.p99", tail_percentile(offer_us, 0.99).value_or(0.0),
          "us");
  const std::vector<double> steps = tracer.durations_ms("service.step");
  double instance_steps = 0.0;
  int active_max = 0;
  for (const int a : active_) {
    instance_steps += a;
    active_max = std::max(active_max, a);
  }
  double step_ms = 0.0;
  for (const double s : steps) step_ms += s;
  out.put("service.step_ns_per_instance", step_ms * 1e6 / instance_steps,
          "ns");
  out.put("service.active_mean",
          instance_steps / static_cast<double>(active_.size()), "count");
  out.put("service.active_max", active_max, "count");
  out.put("service.rounds_per_job", rounds / (runs * kJobs), "count");
  out.put("service.slots_created_timed",
          static_cast<double>(service_->slots_created() - slots_before),
          "count");
  const double end_run_ms = median(tracer.durations_ms("service.end_run"));
  out.put("service.end_run_ms", end_run_ms, "ms");
  out.put("service.vt_latency.p99", reference_.latency_quantile(0.99), "round");
  out.put("service.vt_queue_wait.p99", reference_.queue_sketch.quantile(0.99),
          "round");

  // Parts vs whole for one run: offers at their traced mean, every
  // sub-instance's restore + rounds x (dispatch + process) + check at its
  // shape's probed cost, and end_run.
  const auto& mix = service_->mix();
  std::vector<std::uint64_t> per_template(mix.size(), 0);
  for (const auto& rec : reference_.records) {
    ++per_template[static_cast<std::size_t>(rec.template_index)];
  }
  double attributed_ms = mean(offer_us) * kJobs / 1e3 + end_run_ms;
  for (std::size_t t = 0; t < mix.size(); ++t) {
    const auto& tmpl = mix[t];
    const bool ic = tmpl.kind == da::service::JobKind::kIc;
    const ShapeCost cost = probe_shape(
        Shape{ic ? ShapeKind::kOm : ShapeKind::kByz, tmpl.config, tmpl.faulty});
    const double instances =
        static_cast<double>(per_template[t]) * (ic ? tmpl.config.n : 1);
    attributed_ms += instances *
                     (cost.restore_us +
                      cost.rounds * (cost.dispatch_us + cost.process_round_us) +
                      cost.check_us) /
                     1e3;
  }
  const double wall_ms = median(run_ms_);
  out.put("service.unattributed_share", (wall_ms - attributed_ms) / wall_ms,
          "ratio");
  out.put("trace.overhead_share.service", overhead_share(plain, traced),
          "ratio");
  return traced;
}

}  // namespace

std::unique_ptr<Workload> make_service(std::uint64_t seed) {
  return std::make_unique<Service>(seed);
}

}  // namespace perfbench
