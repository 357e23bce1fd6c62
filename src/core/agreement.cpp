#include "core/agreement.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "protocols/lamport/om.hpp"
#include "rt/threaded_runner.hpp"
#include "sim/round_engine.hpp"
#include "util/contracts.hpp"

namespace da {

namespace {

/// The one run body of both facades: options from the spec and `extras`,
/// the chosen runtime, and the protocol's execution and message counters.
sim::RunResult execute(std::vector<std::unique_ptr<sim::Process>> procs,
                       const ScenarioSpec& spec, sim::Adversary* adversary,
                       const RunExtras& extras, bool threaded,
                       const obs::Counter& executions,
                       const obs::Counter& messages) {
  executions.add();
  sim::RunOptions options;
  options.faulty = spec.faulty;
  options.adversary = adversary;
  options.network = extras.network;
  options.trace = extras.trace;
  sim::RunResult result =
      threaded ? rt::ThreadedRunner(std::move(procs), std::move(options)).run()
               : sim::RoundEngine(std::move(procs), std::move(options)).run();
  messages.add(result.messages_sent);
  return result;
}

sim::RunResult run_byz(const Config& config, const ScenarioSpec& spec,
                       sim::Adversary* adversary, const RunExtras& extras,
                       bool threaded) {
  spec.validate();
  DA_EXPECTS(spec.config.n == config.n && spec.config.m == config.m &&
             spec.config.u == config.u);
  static const obs::Counter executions("protocol.byz.executions");
  static const obs::Counter messages("protocol.byz.messages_sent");
  return execute(
      core::make_byz_processes(config, spec.sender, spec.sender_value), spec,
      adversary, extras, threaded, executions, messages);
}

}  // namespace

DegradableAgreement::DegradableAgreement(Config config) : config_(config) {
  DA_EXPECTS(config_.valid());
}

sim::RunResult DegradableAgreement::run(const ScenarioSpec& spec,
                                        sim::Adversary* adversary,
                                        const RunExtras& extras) const {
  return run_byz(config_, spec, adversary, extras, /*threaded=*/false);
}

sim::RunResult DegradableAgreement::run_threaded(
    const ScenarioSpec& spec, sim::Adversary* adversary,
    const RunExtras& extras) const {
  return run_byz(config_, spec, adversary, extras, /*threaded=*/true);
}

ConditionReport DegradableAgreement::run_and_check(
    const ScenarioSpec& spec, sim::Adversary* adversary,
    const RunExtras& extras) const {
  return check_conditions(spec, run(spec, adversary, extras).decisions);
}

LamportAgreement::LamportAgreement(int n, int m) : n_(n), m_(m) {
  DA_EXPECTS(n >= 2 && m >= 0);
}

sim::RunResult LamportAgreement::run(const ScenarioSpec& spec,
                                     sim::Adversary* adversary,
                                     const RunExtras& extras) const {
  spec.validate();
  DA_EXPECTS(spec.config.n == n_);
  static const obs::Counter executions("protocol.om.executions");
  static const obs::Counter messages("protocol.om.messages_sent");
  return execute(protocols::lamport::make_om_processes(n_, m_, spec.sender,
                                                       spec.sender_value),
                 spec, adversary, extras, /*threaded=*/false, executions,
                 messages);
}

}  // namespace da
