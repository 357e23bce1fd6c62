#pragma once

#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/scenario.hpp"
#include "protocols/ic/interactive_consistency.hpp"

namespace da::core {

/// Degradable interactive consistency: every node distributes its private
/// value with m/u-degradable agreement (one BYZ(m,m) instance per sender).
///
/// Section 3 notes the approach "is useful when multiple senders measure
/// the same quantity"; this is the natural vector form. Per coordinate s
/// the guarantees are exactly D.1-D.4 of the single-sender problem:
///   - f <= m: all fault-free vectors agree on every coordinate, and
///     fault-free senders' coordinates carry their true inputs;
///   - m < f <= u: each coordinate splits fault-free nodes into at most
///     two classes — the true/common value and V_d — so every coordinate
///     still has >= m+1 fault-free nodes in agreement (whereas classical
///     interactive consistency retains nothing past N/3; see Bhandari).
///
/// The result has interactive consistency's shape: vectors[p][s] is what
/// node p decided node s's private value is.
[[nodiscard]] protocols::ic::IcResult run_degradable_ic(
    const Config& config, const std::vector<Value>& inputs,
    const std::vector<NodeId>& faulty,
    const protocols::ic::AdversaryFactory& adversaries);

/// Per-coordinate verdicts against D.1-D.4.
struct DicReport {
  bool satisfied = true;
  /// Coordinates whose governing condition was violated.
  std::vector<NodeId> violated_coordinates;
  /// min over coordinates of the largest fault-free group agreeing on that
  /// coordinate (sender included). The degradable guarantee is >= m+1 for
  /// every coordinate while f <= u.
  int min_coordinate_agreement = 0;
  /// True when every fault-free node holds exactly the same vector
  /// (guaranteed for f <= m).
  bool vectors_identical = false;
  std::string detail;
};

[[nodiscard]] DicReport check_degradable_ic(
    const Config& config, const std::vector<Value>& inputs,
    const std::vector<NodeId>& faulty,
    const protocols::ic::IcResult& result);

}  // namespace da::core
