#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "protocols/common/eig_process.hpp"
#include "sim/decisions.hpp"
#include "sim/process.hpp"
#include "util/ids.hpp"
#include "util/value.hpp"

namespace da::protocols::lamport {

/// Lamport-Shostak-Pease OM(m), the paper's reference [7] and the baseline
/// BYZ extends: the identical EIG message pattern, resolved by simple
/// majority instead of the VOTE(n-1-m, n-1) threshold. Satisfies D.1/D.2
/// (Byzantine agreement) for f <= m when n >= 3m+1; makes *no* promise for
/// f > m — the degradable protocol's whole point.
[[nodiscard]] std::vector<std::unique_ptr<sim::Process>> make_om_processes(
    int n, int m, NodeId sender, Value value);

/// Rounds used by OM(m).
[[nodiscard]] int om_rounds(int m);

/// Point-to-point message count of OM(m) with n nodes (same recursion as
/// BYZ(m,m) for m >= 1; OM(0) is a bare broadcast).
[[nodiscard]] std::uint64_t om_message_count(int n, int m);

/// Byzantine agreement conditions (Lamport's IC1/IC2, identical to D.1/D.2):
/// true iff all fault-free receivers decided one identical value, which is
/// the sender's value whenever the sender is fault-free.
[[nodiscard]] bool byzantine_agreement_holds(
    Value sender_value, bool sender_faulty,
    const std::vector<NodeId>& fault_free_receivers,
    const sim::Decisions& decisions);

}  // namespace da::protocols::lamport
