#include "inject/differ.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "core/byz.hpp"
#include "core/checker.hpp"
#include "event/event_runner.hpp"
#include "faults/adversaries.hpp"
#include "inject/injection_network.hpp"
#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "protocols/authenticated/signatures.hpp"
#include "protocols/authenticated/sm.hpp"
#include "protocols/crusader/crusader.hpp"
#include "protocols/lamport/om.hpp"
#include "rt/threaded_runner.hpp"
#include "sim/round_engine.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"

namespace da::inject {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kByz: return "byz";
    case Protocol::kOm: return "om";
    case Protocol::kCrusader: return "crusader";
    case Protocol::kSm: return "sm";
    case Protocol::kIc: return "ic";
    case Protocol::kDic: return "dic";
  }
  return "?";
}

namespace {

const char* adversary_name(AdversaryKind k) {
  switch (k) {
    case AdversaryKind::kFromSeed: return "seeded";
    case AdversaryKind::kHonest: return "honest";
    case AdversaryKind::kSilent: return "silent";
    case AdversaryKind::kLiar: return "liar";
    case AdversaryKind::kEquivocator: return "equivocator";
    case AdversaryKind::kCrash: return "crash";
    case AdversaryKind::kNoise: return "noise";
  }
  return "?";
}

enum class Runtime { kSim, kThreaded, kEvent };

const char* runtime_name(Runtime rt) {
  switch (rt) {
    case Runtime::kSim: return "sim";
    case Runtime::kThreaded: return "threaded";
    case Runtime::kEvent: return "event";
  }
  return "?";
}

bool multi_instance(Protocol p) {
  return p == Protocol::kIc || p == Protocol::kDic;
}

int protocol_rounds(Protocol p, const Config& cfg) {
  switch (p) {
    case Protocol::kByz:
    case Protocol::kDic: return core::byz_depth(cfg.m);
    case Protocol::kOm:
    case Protocol::kIc: return protocols::lamport::om_rounds(cfg.m);
    case Protocol::kCrusader: return protocols::crusader::crusader_rounds();
    case Protocol::kSm: return cfg.m + 1;
  }
  return 2;
}

/// The scenario one instance of the case runs. Single-instance protocols
/// run the case's spec verbatim; IC/DIC instance s broadcasts sender s's
/// input (the case sender keeps the case value, everyone else a value
/// derived from their id so coordinates are distinguishable).
ScenarioSpec instance_spec(const DifferentialCase& c, int instance) {
  ScenarioSpec spec = c.spec;
  if (multi_instance(c.protocol)) {
    spec.sender = instance;
    if (instance != c.spec.sender) {
      spec.sender_value = Value::of(100 + instance);
    }
  }
  return spec;
}

std::vector<std::unique_ptr<sim::Process>> make_processes(
    Protocol p, const ScenarioSpec& spec,
    const protocols::authenticated::SignatureAuthority& authority) {
  const Config& cfg = spec.config;
  switch (p) {
    case Protocol::kByz:
    case Protocol::kDic:
      return core::make_byz_processes(cfg, spec.sender, spec.sender_value);
    case Protocol::kOm:
    case Protocol::kIc:
      return protocols::lamport::make_om_processes(cfg.n, cfg.m, spec.sender,
                                                   spec.sender_value);
    case Protocol::kCrusader:
      return protocols::crusader::make_crusader_processes(
          cfg.n, cfg.m, spec.sender, spec.sender_value);
    case Protocol::kSm:
      return protocols::authenticated::make_sm_processes(
          cfg.n, cfg.m, spec.sender, spec.sender_value, authority);
  }
  return {};
}

AdversaryKind resolve_adversary(const DifferentialCase& c, int instance) {
  if (c.adversary != AdversaryKind::kFromSeed) return c.adversary;
  // Rotate the family deterministically per (case, instance): honest is
  // deliberately excluded (draw_case already produces f = 0 cases).
  static constexpr AdversaryKind kFamily[] = {
      AdversaryKind::kSilent,      AdversaryKind::kLiar,
      AdversaryKind::kEquivocator, AdversaryKind::kCrash,
      AdversaryKind::kNoise,
  };
  const std::uint64_t pick =
      mix64(c.adversary_seed, 0xADull + static_cast<std::uint64_t>(instance));
  return kFamily[pick % (sizeof(kFamily) / sizeof(kFamily[0]))];
}

std::unique_ptr<sim::Adversary> make_adversary(
    const DifferentialCase& c, const ScenarioSpec& spec, int instance,
    AdversaryKind kind,
    const protocols::authenticated::SignatureAuthority& authority) {
  switch (kind) {
    case AdversaryKind::kFromSeed:  // resolved before this call
    case AdversaryKind::kHonest: return faults::honest();
    case AdversaryKind::kSilent: return faults::silent();
    case AdversaryKind::kLiar: return faults::constant_liar(Value::of(99));
    case AdversaryKind::kEquivocator:
      // Against signatures, value substitution needs re-signing to bite.
      if (c.protocol == Protocol::kSm) {
        return protocols::authenticated::signing_equivocator(
            authority, spec.faulty, spec.sender_value, Value::of(88));
      }
      return faults::equivocator(spec.sender_value, Value::of(88));
    case AdversaryKind::kCrash: return faults::crash_after(1);
    case AdversaryKind::kNoise:
      return faults::random_noise(
          mix64(c.adversary_seed,
                0xA0ull + static_cast<std::uint64_t>(instance)),
          1, 9, 0.2);
  }
  return faults::honest();
}

std::string decisions_str(const std::map<NodeId, Value>& decisions) {
  std::string out;
  for (const auto& [node, value] : decisions) {
    if (!out.empty()) out += ",";
    out += std::to_string(node) + "=" + value.to_string();
  }
  return out;
}

std::string faulty_str(const std::vector<NodeId>& faulty) {
  std::string out;
  for (NodeId id : faulty) {
    if (!out.empty()) out += ",";
    out += std::to_string(id);
  }
  return out;
}

/// Runs every instance of `c` on one runtime and folds the results into a
/// canonical byte-comparable artifact. Every input that could vary — the
/// processes, the adversary, the injection network, the trace — is built
/// fresh per (runtime, instance) from the case alone.
RuntimeObservation observe(const DifferentialCase& c, Runtime rt) {
  RuntimeObservation obs;
  const int n = c.spec.config.n;
  const int instances = multi_instance(c.protocol) ? n : 1;
  const protocols::authenticated::SignatureAuthority authority(
      mix64(c.adversary_seed, 0x516ull), n);

  obs::Json header = obs::Json::object();
  header.set("protocol", obs::Json(std::string(to_string(c.protocol))))
      .set("config", obs::Json(c.spec.config.to_string()))
      .set("sender", obs::Json(static_cast<std::int64_t>(c.spec.sender)))
      .set("value", obs::Json(c.spec.sender_value.to_string()))
      .set("faulty", obs::Json(faulty_str(c.spec.faulty)))
      .set("plan", obs::Json(c.plan.serialize()));
  obs.artifact = header.dump() + "\n";

  for (int instance = 0; instance < instances; ++instance) {
    const ScenarioSpec spec = instance_spec(c, instance);
    const AdversaryKind kind = resolve_adversary(c, instance);
    std::unique_ptr<sim::Adversary> adversary;
    if (!spec.faulty.empty()) {
      adversary = make_adversary(c, spec, instance, kind, authority);
    }
    InjectionNetwork network(c.plan);
    sim::Trace trace;
    sim::RunOptions options;
    options.faulty = spec.faulty;
    options.adversary = adversary.get();
    options.network = &network;
    options.trace = &trace;

    sim::RunResult result;
    switch (rt) {
      case Runtime::kSim:
        result = sim::RoundEngine(make_processes(c.protocol, spec, authority),
                                  std::move(options))
                     .run();
        break;
      case Runtime::kThreaded:
        result =
            da::rt::ThreadedRunner(make_processes(c.protocol, spec, authority),
                                   std::move(options))
                .run();
        break;
      case Runtime::kEvent: {
        event::TimingModel timing;
        timing.seed = mix64(c.adversary_seed, 0xE7ull);
        result = event::EventRunner(make_processes(c.protocol, spec, authority),
                                    std::move(options), timing,
                                    event::perfect_clocks(n))
                     .run()
                     .base;
        break;
      }
    }

    const ConditionReport report = check_conditions(spec, result.decisions);
    const std::string verdict =
        std::string(da::to_string(report.applied)) +
        (report.satisfied ? "+" : "-");
    if (!obs.verdict.empty()) obs.verdict += "|";
    obs.verdict += verdict;
    obs.decisions[instance] = result.decisions;
    obs.messages_sent += result.messages_sent;
    obs.messages_delivered += result.messages_delivered;

    obs::Json record = obs::Json::object();
    record.set("instance", obs::Json(static_cast<std::int64_t>(instance)))
        .set("adversary", obs::Json(std::string(adversary_name(kind))))
        .set("verdict", obs::Json(verdict))
        .set("decisions", obs::Json(decisions_str(result.decisions)))
        .set("sent", obs::Json(static_cast<std::int64_t>(result.messages_sent)))
        .set("delivered",
             obs::Json(static_cast<std::int64_t>(result.messages_delivered)))
        .set("inject", network.stats().to_json());
    obs.artifact += record.dump() + "\n";
    obs.artifact += obs::trace_to_jsonl(trace);
    if (!obs.artifact.empty() && obs.artifact.back() != '\n') {
      obs.artifact += '\n';
    }
  }
  return obs;
}

/// First line where two artifacts diverge, for the report's detail field.
std::string first_divergence(Runtime ra, const RuntimeObservation& a,
                             Runtime rb, const RuntimeObservation& b) {
  if (a.artifact == b.artifact) return {};
  std::size_t line = 1;
  std::size_t pa = 0;
  std::size_t pb = 0;
  while (pa < a.artifact.size() && pb < b.artifact.size()) {
    std::size_t ea = a.artifact.find('\n', pa);
    std::size_t eb = b.artifact.find('\n', pb);
    if (ea == std::string::npos) ea = a.artifact.size();
    if (eb == std::string::npos) eb = b.artifact.size();
    const std::string la = a.artifact.substr(pa, ea - pa);
    const std::string lb = b.artifact.substr(pb, eb - pb);
    if (la != lb) {
      return "artifact line " + std::to_string(line) + ": " +
             runtime_name(ra) + " `" + la.substr(0, 160) + "` vs " +
             runtime_name(rb) + " `" + lb.substr(0, 160) + "`";
    }
    pa = ea + 1;
    pb = eb + 1;
    ++line;
  }
  return std::string("artifact length: ") + runtime_name(ra) + " " +
         std::to_string(a.artifact.size()) + " bytes vs " + runtime_name(rb) +
         " " + std::to_string(b.artifact.size()) + " bytes";
}

}  // namespace

std::string DifferentialCase::to_string() const {
  return std::string(inject::to_string(protocol)) + " " + spec.config.to_string() +
         " sender=" + std::to_string(spec.sender) +
         " value=" + spec.sender_value.to_string() + " faulty=[" +
         faulty_str(spec.faulty) + "] adversary=" + adversary_name(adversary) +
         " plan{" + plan.to_string() + "}";
}

DifferentialReport run_differential(const DifferentialCase& c) {
  DifferentialReport report;
  report.sim = observe(c, Runtime::kSim);
  report.threaded = observe(c, Runtime::kThreaded);
  report.event = observe(c, Runtime::kEvent);

  report.artifacts_identical =
      report.sim.artifact == report.threaded.artifact &&
      report.sim.artifact == report.event.artifact;
  report.decisions_identical =
      report.sim.decisions == report.threaded.decisions &&
      report.sim.decisions == report.event.decisions;
  report.verdicts_identical = report.sim.verdict == report.threaded.verdict &&
                              report.sim.verdict == report.event.verdict;
  report.conditions_satisfied =
      report.sim.verdict.find('-') == std::string::npos;

  if (!report.ok()) {
    report.detail = first_divergence(Runtime::kSim, report.sim,
                                     Runtime::kThreaded, report.threaded);
    if (report.detail.empty()) {
      report.detail = first_divergence(Runtime::kSim, report.sim,
                                       Runtime::kEvent, report.event);
    }
    if (report.detail.empty()) {
      report.detail = "decisions or verdicts diverged without an artifact diff";
    }
  }
  return report;
}

DifferentialCase draw_case(std::uint64_t seed, std::uint64_t ordinal) {
  Rng rng(mix64(mix64(seed, 0xD1FFull), ordinal));
  DifferentialCase c;
  c.protocol = static_cast<Protocol>(ordinal % kProtocolCount);

  int n = 0;
  int m = 0;
  int u = 0;
  switch (c.protocol) {
    case Protocol::kByz:
      m = static_cast<int>(rng.below(2));  // 0 or 1
      u = m + static_cast<int>(rng.below(2));
      if (u == 0) u = 1;
      n = 2 * m + u + 1 + static_cast<int>(rng.below(2));  // <= 6
      break;
    case Protocol::kOm:
      m = 1;
      u = 1;
      n = 4 + static_cast<int>(rng.below(3));  // OM(1) wants n >= 4
      break;
    case Protocol::kCrusader:
      m = 1;
      u = 1 + static_cast<int>(rng.below(2));
      n = 2 * m + u + 1 + static_cast<int>(rng.below(2));  // <= 6
      break;
    case Protocol::kSm:
      m = 1 + static_cast<int>(rng.below(2));  // 1 or 2
      u = m;
      n = 4 + static_cast<int>(rng.below(2));  // n >= m+2 holds
      break;
    case Protocol::kIc:
      m = 1;
      u = 1;
      n = 4 + static_cast<int>(rng.below(2));  // n instances each: keep small
      break;
    case Protocol::kDic:
      m = 1;
      u = 1 + static_cast<int>(rng.below(2));
      n = 2 * m + u + 1;  // 4 or 5
      break;
  }
  c.spec.config = Config{n, m, u};
  c.spec.sender = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
  c.spec.sender_value = Value::of(rng.range(1, 9));

  // f in 0..u so cases span the fault-free, D.1/D.2 and D.3/D.4 regimes.
  const int f = static_cast<int>(rng.below(static_cast<std::uint64_t>(u) + 1));
  for (int id : rng.subset(n, f)) {
    c.spec.faulty.push_back(static_cast<NodeId>(id));
  }

  c.plan = FaultPlan::from_seed(rng.next(), n,
                                protocol_rounds(c.protocol, c.spec.config));
  c.adversary_seed = rng.next();
  return c;
}

DifferentialSweepResult sweep_differential(std::uint64_t seed,
                                           std::uint64_t cases, int jobs) {
  DifferentialSweepResult out;
  out.cases = cases;
  if (cases == 0) return out;

  // One detail slot per shard: each shard is scanned by exactly one
  // worker, so slots need no locking (the sweep engine's contract).
  const sweep::ShardPlan plan = sweep::ShardPlan::even(cases, 4);
  std::vector<std::string> details(plan.shard_count());

  sweep::SweepOptions options;
  options.jobs = jobs;
  options.seed = seed;
  const sweep::SweepResult result = sweep::run_sweep(
      plan, options,
      [&](std::uint64_t ordinal, std::size_t shard, Rng&) {
        const DifferentialCase c = draw_case(seed, ordinal);
        const DifferentialReport report = run_differential(c);
        sweep::Visit visit;
        // Three runtimes, `instances` executions each.
        visit.executions =
            3 * static_cast<std::uint64_t>(
                    multi_instance(c.protocol) ? c.spec.config.n : 1);
        visit.hit = !report.ok();
        if (visit.hit && details[shard].empty()) {
          details[shard] = c.to_string() + ": " + report.detail;
        }
        return visit;
      });

  out.first_mismatch = result.first_hit;
  out.executions = result.stats.executions;
  if (result.first_hit_shard.has_value()) {
    out.detail = details[*result.first_hit_shard];
  }
  return out;
}

}  // namespace da::inject
