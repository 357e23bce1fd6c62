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
  DA_EXPECTS(std::is_sorted(faulty.begin(), faulty.end()));
  for (const Value& input : inputs) DA_EXPECTS(!input.is_default());

  const DegradableAgreement protocol(config);
  protocols::ic::IcResult result;
  for (NodeId p = 0; p < config.n; ++p) {
    result.vectors[p].assign(static_cast<std::size_t>(config.n),
                             Value::def());
  }

  for (NodeId sender = 0; sender < config.n; ++sender) {
    ScenarioSpec spec;
    spec.config = config;
    spec.sender = sender;
    spec.sender_value = inputs[static_cast<std::size_t>(sender)];
    spec.faulty = faulty;

    std::unique_ptr<sim::Adversary> adversary;
    sim::Adversary* adversary_ptr = nullptr;
    if (!faulty.empty()) {
      adversary = adversaries(sender);
      adversary_ptr = adversary.get();
    }
    const Outcome outcome = protocol.run(spec, adversary_ptr);
    result.messages_sent += outcome.messages_sent;
    for (const auto& [node, decision] : outcome.decisions) {
      result.vectors[node][static_cast<std::size_t>(sender)] = decision;
    }
  }
  return result;
}

DicReport check_degradable_ic(const Config& config,
                              const std::vector<Value>& inputs,
                              const std::vector<NodeId>& faulty,
                              const protocols::ic::IcResult& result) {
  DicReport report;
  report.min_coordinate_agreement = config.n;

  const auto is_faulty = [&faulty](NodeId id) {
    return std::binary_search(faulty.begin(), faulty.end(), id);
  };

  // Per-coordinate D.1-D.4 via the single-sender checker: coordinate s of
  // every node's vector is that node's "decision" in instance s.
  for (NodeId s = 0; s < config.n; ++s) {
    ScenarioSpec spec;
    spec.config = config;
    spec.sender = s;
    spec.sender_value = inputs[static_cast<std::size_t>(s)];
    spec.faulty = faulty;

    std::map<NodeId, Value> decisions;
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

  // Vector identity across fault-free nodes.
  const std::vector<Value>* reference = nullptr;
  report.vectors_identical = true;
  for (const auto& [node, vec] : result.vectors) {
    if (is_faulty(node)) continue;
    if (reference == nullptr) {
      reference = &vec;
    } else if (vec != *reference) {
      report.vectors_identical = false;
      break;
    }
  }
  return report;
}

}  // namespace da::core
