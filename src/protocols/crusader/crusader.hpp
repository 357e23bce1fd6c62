#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "protocols/common/eig_process.hpp"
#include "sim/decisions.hpp"
#include "sim/process.hpp"
#include "util/ids.hpp"
#include "util/value.hpp"

namespace da::protocols::crusader {

/// Crusader agreement (Dolev, "The Byzantine generals strike again", the
/// paper's reference [2]): fault-free receivers either agree on the
/// sender's value or explicitly detect "sender faulty".
///
/// We realize it as the paper's own BYZ(1,m) building block used as a
/// standalone two-round protocol — send, echo, VOTE(n-1-m, n-1) — with the
/// default value V_d playing the role of Dolev's "sender is faulty" verdict.
/// Lemma 2 of the paper is then exactly the crusader property set:
///   - f <= m, sender fault-free: all fault-free decide the sender's value;
///   - any f <= u: every fault-free decides the sender's value or V_d
///     (sender fault-free), and for m = 1 at most one non-default value
///     exists among fault-free decisions (sender faulty).
[[nodiscard]] std::vector<std::unique_ptr<sim::Process>>
make_crusader_processes(int n, int m, NodeId sender, Value value);

[[nodiscard]] constexpr int crusader_rounds() { return 2; }

/// Point-to-point messages of one crusader execution with n nodes and no
/// omissions: the depth-2 EIG pattern, eig_message_count(n, 2) =
/// (n-1) + (n-1)(n-2) = (n-1)^2.
[[nodiscard]] std::uint64_t crusader_message_count(int n);

/// Crusader conditions: (1) fault-free sender => all fault-free receivers
/// decide its value; (2) receivers that decide a non-default value all
/// decide the same one.
[[nodiscard]] bool crusader_agreement_holds(
    Value sender_value, bool sender_faulty,
    const std::vector<NodeId>& fault_free_receivers,
    const sim::Decisions& decisions);

}  // namespace da::protocols::crusader
