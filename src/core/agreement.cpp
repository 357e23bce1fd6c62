#include "core/agreement.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "rt/threaded_runner.hpp"
#include "sim/round_engine.hpp"
#include "util/contracts.hpp"

namespace da {

namespace {

sim::RunOptions to_run_options(const ScenarioSpec& spec,
                               sim::Adversary* adversary,
                               const RunExtras& extras) {
  sim::RunOptions options;
  options.faulty = spec.faulty;
  options.adversary = adversary;
  options.network = extras.network;
  options.trace = extras.trace;
  return options;
}

Outcome to_outcome(sim::RunResult&& result) {
  Outcome out;
  out.decisions = std::move(result.decisions);
  out.messages_sent = result.messages_sent;
  out.messages_delivered = result.messages_delivered;
  out.rounds = result.rounds;
  return out;
}

}  // namespace

Value Outcome::decision_of(NodeId id) const { return decisions.at(id); }

DegradableAgreement::DegradableAgreement(Config config) : config_(config) {
  DA_EXPECTS(config_.valid());
}

Outcome DegradableAgreement::run(const ScenarioSpec& spec,
                                 sim::Adversary* adversary,
                                 const RunExtras& extras) const {
  return execute(spec, adversary, extras, /*threaded=*/false);
}

Outcome DegradableAgreement::run_threaded(const ScenarioSpec& spec,
                                          sim::Adversary* adversary,
                                          const RunExtras& extras) const {
  return execute(spec, adversary, extras, /*threaded=*/true);
}

Outcome DegradableAgreement::execute(const ScenarioSpec& spec,
                                     sim::Adversary* adversary,
                                     const RunExtras& extras,
                                     bool threaded) const {
  spec.validate();
  DA_EXPECTS(spec.config.n == config_.n && spec.config.m == config_.m &&
             spec.config.u == config_.u);
  static const obs::Counter executions("protocol.byz.executions");
  static const obs::Counter messages("protocol.byz.messages_sent");
  executions.add();
  auto procs =
      core::make_byz_processes(config_, spec.sender, spec.sender_value);
  sim::RunOptions options = to_run_options(spec, adversary, extras);
  Outcome out = to_outcome(
      threaded ? rt::ThreadedRunner(std::move(procs), std::move(options)).run()
               : sim::RoundEngine(std::move(procs), std::move(options)).run());
  messages.add(out.messages_sent);
  return out;
}

ConditionReport DegradableAgreement::run_and_check(
    const ScenarioSpec& spec, sim::Adversary* adversary,
    const RunExtras& extras) const {
  const Outcome outcome = run(spec, adversary, extras);
  return check_conditions(spec, outcome.decisions);
}

LamportAgreement::LamportAgreement(int n, int m) : n_(n), m_(m) {
  DA_EXPECTS(n >= 2 && m >= 0);
}

Outcome LamportAgreement::run(const ScenarioSpec& spec,
                              sim::Adversary* adversary,
                              const RunExtras& extras) const {
  spec.validate();
  DA_EXPECTS(spec.config.n == n_);
  static const obs::Counter executions("protocol.om.executions");
  static const obs::Counter messages("protocol.om.messages_sent");
  executions.add();
  auto procs = protocols::make_eig_processes(
      n_, spec.sender, spec.sender_value, m_ + 1,
      std::make_shared<protocols::MajorityResolver>());
  sim::RoundEngine engine(std::move(procs),
                          to_run_options(spec, adversary, extras));
  Outcome out = to_outcome(engine.run());
  messages.add(out.messages_sent);
  return out;
}

}  // namespace da
