#pragma once

#include "core/byz.hpp"
#include "core/checker.hpp"
#include "core/scenario.hpp"
#include "sim/adversary.hpp"
#include "sim/decisions.hpp"
#include "sim/network.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"

namespace da {

/// Optional execution knobs shared by both runtimes.
struct RunExtras {
  sim::NetworkModel* network = nullptr;  // null = reliable links
  sim::Trace* trace = nullptr;           // optional transcript capture
};

/// The paper's protocol, packaged: construct with a Config, run scenarios.
///
///   da::DegradableAgreement proto({.n = 7, .m = 1, .u = 4});
///   const da::sim::RunResult result = proto.run(spec, adversary.get());
///   auto report = da::check_conditions(spec, result.decisions);
///
/// `run` executes on the deterministic single-threaded simulator;
/// `run_threaded` executes the identical protocol on the threaded runtime
/// (each round's nodes stepped in parallel on a worker pool). Both return
/// the runtime's own `sim::RunResult`, with identical decisions for
/// identical scenarios.
class DegradableAgreement {
 public:
  explicit DegradableAgreement(Config config);

  [[nodiscard]] const Config& config() const { return config_; }

  /// Rounds BYZ(m,m) uses under this config.
  [[nodiscard]] int rounds() const { return core::byz_depth(config_.m); }

  [[nodiscard]] sim::RunResult run(const ScenarioSpec& spec,
                                   sim::Adversary* adversary,
                                   const RunExtras& extras = {}) const;

  [[nodiscard]] sim::RunResult run_threaded(
      const ScenarioSpec& spec, sim::Adversary* adversary,
      const RunExtras& extras = {}) const;

  /// Convenience: run on the simulator and immediately check D.1-D.4.
  [[nodiscard]] ConditionReport run_and_check(
      const ScenarioSpec& spec, sim::Adversary* adversary,
      const RunExtras& extras = {}) const;

 private:
  Config config_;
};

/// Baseline: Lamport-Shostak-Pease OM(m) over the same substrate (majority
/// resolve instead of the threshold vote), run through the same body as
/// `DegradableAgreement::run`. Used for comparisons and the m = u
/// equivalence tests.
class LamportAgreement {
 public:
  LamportAgreement(int n, int m);

  [[nodiscard]] sim::RunResult run(const ScenarioSpec& spec,
                                   sim::Adversary* adversary,
                                   const RunExtras& extras = {}) const;

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int m() const { return m_; }

 private:
  int n_;
  int m_;
};

}  // namespace da
