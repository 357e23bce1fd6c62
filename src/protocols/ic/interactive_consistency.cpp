#include "protocols/ic/interactive_consistency.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "protocols/lamport/om.hpp"
#include "sim/round_engine.hpp"
#include "sim/runner.hpp"
#include "util/contracts.hpp"

namespace da::protocols::ic {

namespace {

bool is_faulty(const std::vector<NodeId>& faulty, NodeId id) {
  return std::binary_search(faulty.begin(), faulty.end(), id);
}

}  // namespace

IcResult run_per_sender(const std::vector<Value>& inputs,
                        const std::vector<NodeId>& faulty,
                        const AdversaryFactory& adversaries,
                        const InstanceRun& run_instance) {
  DA_EXPECTS(std::is_sorted(faulty.begin(), faulty.end()));
  const NodeId n = static_cast<NodeId>(inputs.size());
  IcResult result;
  for (NodeId p = 0; p < n; ++p) {
    result.vectors[p].assign(inputs.size(), Value::def());
  }
  for (NodeId sender = 0; sender < n; ++sender) {
    std::unique_ptr<sim::Adversary> adversary;
    if (!faulty.empty()) adversary = adversaries(sender);
    const sim::RunResult run = run_instance(
        sender, inputs[static_cast<std::size_t>(sender)], adversary.get());
    result.messages_sent += run.messages_sent;
    for (const auto& [node, decision] : run.decisions) {
      result.vectors[node][static_cast<std::size_t>(sender)] = decision;
    }
  }
  return result;
}

IcResult run_interactive_consistency(int n, int m,
                                     const std::vector<Value>& inputs,
                                     const std::vector<NodeId>& faulty,
                                     const AdversaryFactory& adversaries) {
  DA_EXPECTS(n >= 2 && m >= 0);
  DA_EXPECTS(static_cast<int>(inputs.size()) == n);

  static const obs::Counter executions("protocol.ic.executions");
  static const obs::Counter instances("protocol.ic.om_instances");
  static const obs::Counter messages("protocol.ic.messages_sent");
  executions.add();
  instances.add(static_cast<std::uint64_t>(n));

  IcResult result = run_per_sender(
      inputs, faulty, adversaries,
      [&](NodeId sender, Value input, sim::Adversary* adversary) {
        sim::RunOptions options;
        options.faulty = faulty;
        options.adversary = adversary;
        return sim::RoundEngine(
                   lamport::make_om_processes(n, m, sender, input), options)
            .run();
      });
  messages.add(result.messages_sent);
  return result;
}

std::uint64_t ic_message_count(int n, int m) {
  DA_EXPECTS(n >= 2 && m >= 0);
  return static_cast<std::uint64_t>(n) * lamport::om_message_count(n, m);
}

bool fault_free_vectors_identical(const IcResult& result,
                                  const std::vector<NodeId>& faulty) {
  const std::vector<Value>* reference = nullptr;
  for (const auto& [node, vec] : result.vectors) {
    if (is_faulty(faulty, node)) continue;
    if (reference == nullptr) {
      reference = &vec;
    } else if (vec != *reference) {
      return false;
    }
  }
  return true;
}

bool interactive_consistency_holds(const IcResult& result,
                                   const std::vector<Value>& inputs,
                                   const std::vector<NodeId>& faulty) {
  if (!fault_free_vectors_identical(result, faulty)) return false;
  // IC2: fault-free coordinates are those nodes' true inputs.
  for (const auto& [node, vec] : result.vectors) {
    if (is_faulty(faulty, node)) continue;
    for (std::size_t q = 0; q < vec.size(); ++q) {
      if (!is_faulty(faulty, static_cast<NodeId>(q)) && vec[q] != inputs[q]) {
        return false;
      }
    }
  }
  return true;
}

int largest_identical_vector_group(const IcResult& result,
                                   const std::vector<NodeId>& faulty, int n) {
  int best = 0;
  for (NodeId p = 0; p < n; ++p) {
    if (is_faulty(faulty, p)) continue;
    int count = 0;
    for (NodeId q = 0; q < n; ++q) {
      if (!is_faulty(faulty, q) &&
          result.vectors.at(q) == result.vectors.at(p)) {
        ++count;
      }
    }
    best = std::max(best, count);
  }
  return best;
}

}  // namespace da::protocols::ic
