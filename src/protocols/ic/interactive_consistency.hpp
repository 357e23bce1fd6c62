#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/runner.hpp"
#include "util/ids.hpp"
#include "util/value.hpp"

namespace da::protocols::ic {

/// Builds the adversary controlling the faulty nodes for the agreement
/// instance whose sender is the given node (adversaries may differ per
/// instance — the worst case).
using AdversaryFactory =
    std::function<std::unique_ptr<sim::Adversary>(NodeId instance_sender)>;

struct IcResult {
  /// vectors[p][q] = what node p decided node q's private value is.
  std::map<NodeId, std::vector<Value>> vectors;
  std::size_t messages_sent = 0;
};

/// Runs the agreement instance in which `sender` distributes `input`,
/// its faulty nodes driven by `adversary` (null when there are none).
using InstanceRun = std::function<sim::RunResult(
    NodeId sender, Value input, sim::Adversary* adversary)>;

/// The per-sender loop of every interactive-consistency form: one
/// agreement instance per sender, in sender order, each with its own
/// adversary from `adversaries` (called only when `faulty` is
/// non-empty). Instance s fills coordinate s of every node's vector.
/// `run_interactive_consistency` passes OM(m) as `run_instance`, and
/// degradable IC (core/degradable_ic.hpp) passes BYZ(m,m).
[[nodiscard]] IcResult run_per_sender(const std::vector<Value>& inputs,
                                      const std::vector<NodeId>& faulty,
                                      const AdversaryFactory& adversaries,
                                      const InstanceRun& run_instance);

/// Pease-Shostak-Lamport interactive consistency (the paper's reference
/// [9]): every node distributes its private value with OM(m); fault-free
/// nodes end with a vector of all N values. Used for the Bhandari
/// comparison: IC-style algorithms cannot degrade gracefully past N/3
/// faults, whereas m/u-degradable agreement (m < (N-1)/3) can.
[[nodiscard]] IcResult run_interactive_consistency(
    int n, int m, const std::vector<Value>& inputs,
    const std::vector<NodeId>& faulty, const AdversaryFactory& adversaries);

/// Point-to-point messages of one IC execution with no omissions: n
/// parallel OM(m) instances, n * om_message_count(n, m).
[[nodiscard]] std::uint64_t ic_message_count(int n, int m);

/// IC1: every fault-free node computed the same vector.
[[nodiscard]] bool fault_free_vectors_identical(
    const IcResult& result, const std::vector<NodeId>& faulty);

/// IC validity: IC1 (`fault_free_vectors_identical`), and the entry for
/// every fault-free node equals that node's input (IC2).
[[nodiscard]] bool interactive_consistency_holds(
    const IcResult& result, const std::vector<Value>& inputs,
    const std::vector<NodeId>& faulty);

/// Graceful-degradation metric used by experiment E8: the largest set of
/// fault-free nodes whose vectors are pairwise identical. Under IC with
/// f <= m this is all of them; past N/3 it may collapse to 1. (Bhandari:
/// no interactive-consistency algorithm keeps a nontrivial guarantee there.)
[[nodiscard]] int largest_identical_vector_group(
    const IcResult& result, const std::vector<NodeId>& faulty, int n);

}  // namespace da::protocols::ic
