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

/// Result of one agreement execution.
struct Outcome {
  sim::Decisions decisions;
  std::size_t messages_sent = 0;
  std::size_t messages_delivered = 0;
  int rounds = 0;

  [[nodiscard]] Value decision_of(NodeId id) const;
};

/// Optional execution knobs shared by both runtimes.
struct RunExtras {
  sim::NetworkModel* network = nullptr;  // null = reliable links
  sim::Trace* trace = nullptr;           // optional transcript capture
};

/// The paper's protocol, packaged: construct with a Config, run scenarios.
///
///   da::DegradableAgreement proto({.n = 7, .m = 1, .u = 4});
///   auto outcome = proto.run(spec, adversary.get());
///   auto report  = da::check_conditions(spec, outcome.decisions);
///
/// `run` executes on the deterministic single-threaded simulator;
/// `run_threaded` executes the identical protocol on the threaded runtime
/// (each round's nodes stepped in parallel on a worker pool). Both produce
/// identical decisions for identical scenarios.
class DegradableAgreement {
 public:
  explicit DegradableAgreement(Config config);

  [[nodiscard]] const Config& config() const { return config_; }

  /// Rounds BYZ(m,m) uses under this config.
  [[nodiscard]] int rounds() const { return core::byz_depth(config_.m); }

  [[nodiscard]] Outcome run(const ScenarioSpec& spec,
                            sim::Adversary* adversary,
                            const RunExtras& extras = {}) const;

  [[nodiscard]] Outcome run_threaded(const ScenarioSpec& spec,
                                     sim::Adversary* adversary,
                                     const RunExtras& extras = {}) const;

  /// Convenience: run on the simulator and immediately check D.1-D.4.
  [[nodiscard]] ConditionReport run_and_check(
      const ScenarioSpec& spec, sim::Adversary* adversary,
      const RunExtras& extras = {}) const;

 private:
  /// The one body of `run` and `run_threaded`.
  [[nodiscard]] Outcome execute(const ScenarioSpec& spec,
                                sim::Adversary* adversary,
                                const RunExtras& extras, bool threaded) const;

  Config config_;
};

/// Baseline: Lamport-Shostak-Pease OM(m) over the same substrate (majority
/// resolve instead of the threshold vote). Used for comparisons and the
/// m = u equivalence tests.
class LamportAgreement {
 public:
  LamportAgreement(int n, int m);

  [[nodiscard]] Outcome run(const ScenarioSpec& spec,
                            sim::Adversary* adversary,
                            const RunExtras& extras = {}) const;

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int m() const { return m_; }

 private:
  int n_;
  int m_;
};

}  // namespace da
