#include "core/degradable_ic.hpp"

#include <algorithm>

#include "core/agreement.hpp"
#include "util/contracts.hpp"

namespace da::core {

protocols::ic::IcResult run_degradable_ic(
    const Config& config, const std::vector<Value>& inputs,
    const std::vector<NodeId>& faulty,
    const protocols::ic::AdversaryFactory& adversaries) {
  DA_EXPECTS(config.valid());
  DA_EXPECTS(static_cast<int>(inputs.size()) == config.n);
  for (const Value& input : inputs) DA_EXPECTS(!input.is_default());

  const DegradableAgreement protocol(config);
  return protocols::ic::run_per_sender(
      inputs, faulty, adversaries,
      [&](NodeId sender, Value input, sim::Adversary* adversary) {
        ScenarioSpec spec;
        spec.config = config;
        spec.sender = sender;
        spec.sender_value = input;
        spec.faulty = faulty;
        return protocol.run(spec, adversary);
      });
}

DicReport check_degradable_ic(const Config& config,
                              const std::vector<Value>& inputs,
                              const std::vector<NodeId>& faulty,
                              const protocols::ic::IcResult& result) {
  DicReport report;
  report.min_coordinate_agreement = config.n;

  // Per-coordinate D.1-D.4 via the single-sender checker: coordinate s of
  // every node's vector is that node's decision in instance s.
  sim::Decisions decisions;
  for (NodeId s = 0; s < config.n; ++s) {
    ScenarioSpec spec;
    spec.config = config;
    spec.sender = s;
    spec.sender_value = inputs[static_cast<std::size_t>(s)];
    spec.faulty = faulty;

    decisions.clear();
    for (const auto& [node, vec] : result.vectors) {
      decisions[node] = vec[static_cast<std::size_t>(s)];
    }
    const ConditionReport coordinate = check_conditions(spec, decisions);
    if (!coordinate.satisfied && coordinate.applied != Condition::kNone) {
      report.satisfied = false;
      report.violated_coordinates.push_back(s);
      if (report.detail.empty()) {
        report.detail = "coordinate " + std::to_string(s) + ": " +
                        coordinate.detail;
      }
    }
    report.min_coordinate_agreement = std::min(
        report.min_coordinate_agreement, coordinate.largest_agreeing_class);
  }

  report.vectors_identical =
      protocols::ic::fault_free_vectors_identical(result, faulty);
  return report;
}

}  // namespace da::core
