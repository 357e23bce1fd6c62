#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "inject/fault_plan.hpp"
#include "sim/decisions.hpp"
#include "util/value.hpp"

namespace da::inject {

/// Which protocol a differential case replays. Single-instance protocols
/// run one process set; the interactive-consistency pair (kIc / kDic)
/// replays one agreement instance per sender and checks every coordinate.
enum class Protocol {
  kByz,       // BYZ(m,m) — the paper's m/u-degradable agreement
  kOm,        // Lamport-Shostak-Pease OM(m)
  kCrusader,  // BYZ(1,m) as standalone crusader agreement
  kSm,        // signed-messages SM(m)
  kIc,        // interactive consistency: n parallel OM(m) instances
  kDic,       // degradable IC: n parallel BYZ(m,m) instances
};

inline constexpr int kProtocolCount = 6;

[[nodiscard]] const char* to_string(Protocol p);

/// How the faulty nodes behave. kFromSeed rotates deterministically through
/// the family below, keyed on the case's adversary_seed.
enum class AdversaryKind {
  kFromSeed,
  kHonest,
  kSilent,
  kLiar,
  kEquivocator,
  kCrash,
  kNoise,
};

/// One differential-replay triple: a scenario, a fault plan and the seeds
/// that fix the adversary. Everything an execution observes derives from
/// this struct — no ambient state — so a case replays bit-identically.
struct DifferentialCase {
  Protocol protocol = Protocol::kByz;
  ScenarioSpec spec;
  FaultPlan plan;
  std::uint64_t adversary_seed = 0;
  AdversaryKind adversary = AdversaryKind::kFromSeed;

  [[nodiscard]] std::string to_string() const;
};

/// What one runtime observed for a case: a canonical byte-comparable
/// artifact (header, then per instance a verdict/decisions/injection-stats
/// record followed by the canonical JSONL trace export), plus the pieces
/// tests want individually.
struct RuntimeObservation {
  std::string artifact;
  /// Each instance's decisions, by instance; single-instance protocols
  /// have one.
  std::vector<sim::Decisions> decisions;
  /// Concatenated per-instance D.1-D.4 classification signature, e.g.
  /// "D1+" or "D3+|D4-|..." — the condition that governed, then '+'/'-'
  /// for satisfied/violated.
  std::string verdict;
  std::size_t messages_sent = 0;
  std::size_t messages_delivered = 0;
};

/// Differential verdict across the sim, threaded and event runtimes.
struct DifferentialReport {
  RuntimeObservation sim, threaded, event;
  bool artifacts_identical = false;  // byte-identical canonical artifacts
  bool decisions_identical = false;
  bool verdicts_identical = false;
  /// Every instance's governing condition held on the sim runtime.
  /// Injection can legitimately break conditions (the paper assumes
  /// reliable links), so this is reported, not asserted, except by tests
  /// that use plans known to preserve the hypothesis.
  bool conditions_satisfied = false;
  std::string detail;  // first divergence, empty when ok()

  [[nodiscard]] bool ok() const {
    return artifacts_identical && decisions_identical && verdicts_identical;
  }
};

/// Replays `c` through all three runtimes and compares.
[[nodiscard]] DifferentialReport run_differential(const DifferentialCase& c);

/// The canonical (seed, ordinal) -> case enumeration used by the
/// differential sweep, tests and the regression corpus: a pure function —
/// no shared RNG stream — so any subset of ordinals replays identically
/// for any --jobs value. Ordinal o exercises protocol o % 6.
[[nodiscard]] DifferentialCase draw_case(std::uint64_t seed,
                                         std::uint64_t ordinal);

struct DifferentialSweepResult {
  /// First (by ordinal) case whose runtimes diverged, or nullopt.
  std::optional<std::uint64_t> first_mismatch;
  std::uint64_t cases = 0;       // ordinals in the sweep space
  std::uint64_t executions = 0;  // canonical execution count (jobs-invariant)
  std::string detail;            // describes first_mismatch when present
};

/// Sweeps ordinals [0, cases) of draw_case(seed, .) on the parallel sweep
/// engine. first_mismatch and executions are identical for every jobs
/// value (the sweep engine's determinism contract).
[[nodiscard]] DifferentialSweepResult sweep_differential(std::uint64_t seed,
                                                         std::uint64_t cases,
                                                         int jobs);

}  // namespace da::inject
