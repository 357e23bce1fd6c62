// `replay`: cross-runtime differential replay on one thread.
//
// A case is `inject::draw_case(seed, ordinal)` plus `run_differential`,
// which runs the case through the sim, threaded (one thread per node,
// n <= 6) and event runtimes under its seeded fault plan and byte-compares
// the three canonical artifacts. Ordinals cycle through a fixed block of
// kBlock consecutive ordinals (every protocol equally often), so each
// block does the same mix of work. Any mismatch is a failure. Each block
// runs on one CPU (see CpuRotation), so the threaded runtime's node
// threads hand off to each other without cross-CPU wake-ups.

#include <stdexcept>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "event/event_runner.hpp"
#include "faults/adversaries.hpp"
#include "inject/differ.hpp"
#include "inject/injection_network.hpp"
#include "obs/trace_export.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kBlock = 1200;  // 200 cases of each of 6 protocols

class Replay final : public Workload {
 public:
  explicit Replay(std::uint64_t seed) : seed_(seed) {
    Pass warm;
    for (std::uint64_t o = 0; o < kBlock; ++o) replay_case(warm, nullptr, o);
    if (warm.failed != 0) throw std::runtime_error(warm.failure);
  }

  Pass run(const Budget& budget) override { return loop(budget, nullptr); }

  Pass trace(const Budget& budget, Tracer& tracer, Metrics& out) override;

 private:
  void replay_case(Pass& pass, Tracer* tracer, std::uint64_t ordinal) {
    const auto t0 = Clock::now();
    bool ok = false;
    {
      const Scope case_span(tracer, span_case_, ordinal);
      da::inject::DifferentialCase c;
      {
        const Scope s(tracer, span_draw_, ordinal);
        c = da::inject::draw_case(seed_, ordinal);
      }
      const Scope s(tracer, span_diff_, ordinal);
      ok = da::inject::run_differential(c).ok();
    }
    pass.add_op(ms_between(t0, Clock::now()));
    ++pass.attempted;
    if (!ok) pass.fail("replay: runtimes diverge at ordinal " +
                       std::to_string(ordinal));
  }

  Pass loop(const Budget& budget, Tracer* tracer) {
    // A round is the block; its work is its cases.
    Pass pass;
    pass.ops_per_round = kBlock;
    pass.work_per_round = static_cast<double>(kBlock);
    CpuRotation cpus;
    const auto start = Clock::now();
    while (budget.more(ms_between(start, Clock::now()) / 1e3,
                       pass.op_ms.size())) {
      cpus.next();
      for (std::uint64_t o = 0; o < kBlock; ++o) replay_case(pass, tracer, o);
    }
    return pass;
  }

  std::uint64_t seed_;
  std::uint32_t span_case_ = 0;
  std::uint32_t span_draw_ = 0;
  std::uint32_t span_diff_ = 0;
};

Pass Replay::trace(const Budget& budget, Tracer& tracer, Metrics& out) {
  span_case_ = tracer.intern("replay.case");
  span_draw_ = tracer.intern("inject.draw_case");
  span_diff_ = tracer.intern("inject.run_differential");
  const Pass plain = loop(with_tail(budget, 0.90), nullptr);
  put_op_percentiles(out, "replay.case_ms", plain, 0.90);
  const Pass traced = loop(budget, &tracer);

  // The block's BYZ cases on each runtime by itself, each under the
  // case's own injection network.
  const std::uint32_t span_byz = tracer.intern("replay.byz_case");
  const std::uint32_t span_sim = tracer.intern("sim.DegradableAgreement::run");
  const std::uint32_t span_rt = tracer.intern("rt.run_threaded");
  const std::uint32_t span_event = tracer.intern("event.EventRunner::run");
  const std::uint32_t span_export = tracer.intern("obs.trace_to_jsonl");
  double rule_hits = 0.0;
  double byz_cases = 0.0;
  for (int repeat = 0; repeat < 5; ++repeat) {
    for (std::uint64_t o = 0; o < kBlock; o += da::inject::kProtocolCount) {
      const da::inject::DifferentialCase c = da::inject::draw_case(seed_, o);
      if (c.protocol != da::inject::Protocol::kByz) continue;
      const da::DegradableAgreement protocol(c.spec.config);
      std::unique_ptr<da::sim::Adversary> adversary;
      if (!c.spec.faulty.empty()) {
        adversary = da::faults::equivocator(c.spec.sender_value,
                                            da::Value::of(88));
      }
      const Scope byz(&tracer, span_byz, o);
      da::sim::Trace sim_trace;
      {
        da::inject::InjectionNetwork net(c.plan);
        const Scope s(&tracer, span_sim, o);
        (void)protocol.run(c.spec, adversary.get(),
                           da::RunExtras{&net, &sim_trace});
        if (repeat == 0) {
          for (const auto h : net.stats().rule_hits) {
            rule_hits += static_cast<double>(h);
          }
          byz_cases += 1.0;
        }
      }
      {
        da::inject::InjectionNetwork net(c.plan);
        const Scope s(&tracer, span_rt, o);
        (void)protocol.run_threaded(c.spec, adversary.get(),
                                    da::RunExtras{&net, nullptr});
      }
      {
        da::inject::InjectionNetwork net(c.plan);
        da::sim::RunOptions options;
        options.faulty = c.spec.faulty;
        options.adversary = adversary.get();
        options.network = &net;
        da::event::TimingModel timing;
        timing.seed = derive(c.adversary_seed, 0xe7);
        const Scope s(&tracer, span_event, o);
        (void)da::event::EventRunner(
            da::core::make_byz_processes(c.spec.config, c.spec.sender,
                                         c.spec.sender_value),
            std::move(options), timing,
            da::event::perfect_clocks(c.spec.config.n))
            .run();
      }
      const Scope s(&tracer, span_export, o);
      (void)da::obs::trace_to_jsonl(sim_trace);
    }
  }
  const auto us = [&](const char* name) {
    return median(tracer.durations_ms(name)) * 1e3;
  };
  out.put("sim.run_us.replay", us("sim.DegradableAgreement::run"), "us");
  out.put("rt.run_us", us("rt.run_threaded"), "us");
  out.put("event.run_us", us("event.EventRunner::run"), "us");
  out.put("obs.trace_export_us", us("obs.trace_to_jsonl"), "us");
  out.put("inject.rule_hits_per_case", rule_hits / byz_cases, "count");
  out.put("trace.overhead_share.replay", overhead_share(plain, traced),
          "ratio");
  return traced;
}

}  // namespace

std::unique_ptr<Workload> make_replay(std::uint64_t seed) {
  return std::make_unique<Replay>(seed);
}

}  // namespace perfbench
