#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/decisions.hpp"
#include "util/value.hpp"

namespace da {

/// Which of the paper's agreement conditions governs a scenario.
enum class Condition {
  kD1,    // f <= m, sender fault-free: all decide sender's value
  kD2,    // f <= m, sender faulty: all decide one identical value
  kD3,    // m < f <= u, sender fault-free: classes {sender value, V_d}
  kD4,    // m < f <= u, sender faulty: classes {some value, V_d}
  kNone,  // f > u: the protocol promises nothing
};

[[nodiscard]] const char* to_string(Condition c);

/// Verdict of checking one execution against the definition of
/// m/u-degradable agreement (Section 2).
struct ConditionReport {
  Condition applied = Condition::kNone;
  bool satisfied = true;

  /// Fault-free receivers that decided the sender's value (D.1/D.3) or the
  /// non-default agreed value (D.2/D.4).
  std::vector<NodeId> value_class;
  /// Fault-free receivers that decided V_d.
  std::vector<NodeId> default_class;
  /// Fault-free receivers that decided something else (witnesses of a
  /// violation).
  std::vector<NodeId> violators;

  /// Section 2 corollary: with N > 2m+u and f <= u, at least m+1 fault-free
  /// nodes (sender included) agree on an identical value.
  bool corollary_m_plus_1 = false;
  int largest_agreeing_class = 0;

  std::string detail;
};

/// Checks decisions (one per node; faulty nodes' entries are ignored)
/// against conditions D.1-D.4 for `spec`. The `sim::Decisions` overloads
/// are the forms used by the search and service hot loops: once the
/// thread-local class scratch is warm, the returning form allocates only
/// the report's own class vectors (one for a satisfied D.1 execution) and
/// the `detail` text of a violation. The map overload serves callers that
/// assemble decisions by hand.
[[nodiscard]] ConditionReport check_conditions(const ScenarioSpec& spec,
                                               const sim::Decisions& decisions);
/// `check_conditions` into `report`, reusing its vectors' capacity: a
/// warm satisfied check allocates nothing.
void check_conditions_into(const ScenarioSpec& spec,
                           const sim::Decisions& decisions,
                           ConditionReport& report);
[[nodiscard]] ConditionReport check_conditions(
    const ScenarioSpec& spec, const std::map<NodeId, Value>& decisions);

}  // namespace da
