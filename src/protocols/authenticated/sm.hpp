#pragma once

#include <memory>
#include <set>
#include <vector>

#include "protocols/authenticated/signatures.hpp"
#include "sim/adversary.hpp"
#include "sim/process.hpp"

namespace da::protocols::authenticated {

/// Lamport-Shostak-Pease SM(m): Byzantine agreement *with signatures*.
///
/// The sender signs its value; every receiver countersigns and relays any
/// properly signed value it has not seen, up to chains of m+1 signatures;
/// after m+1 rounds each receiver applies choice(V): the value if its
/// accepted set V is a singleton, V_d otherwise.
///
/// With unforgeable signatures SM(m) tolerates m traitors with only
/// n >= m+2 nodes — no 3m+1 bound. The interesting contrast with the
/// paper: signatures dissolve the *node-count* motivation for degradable
/// agreement, but not the *connectivity* bound (Theorem 3's cut argument
/// does not care about signatures: a cut of silent nodes still partitions
/// the network), nor the oral-message setting the paper targets.
class SmProcess final : public sim::Process {
 public:
  struct Params {
    NodeId self = kNoNode;
    NodeId sender = kNoNode;
    std::vector<NodeId> nodes;
    int m = 1;
    Value input = Value::def();
    const SignatureAuthority* authority = nullptr;  // outlives the process
  };

  explicit SmProcess(Params params);

  [[nodiscard]] NodeId id() const override { return params_.self; }
  [[nodiscard]] int total_rounds() const override { return params_.m + 1; }
  void start(std::vector<sim::Message>& out) override;
  void on_round(int round, const std::vector<sim::Message>& inbox,
                std::vector<sim::Message>& out) override;
  [[nodiscard]] Value decide() const override;

  /// Checkpoint/fork support: execution state is just the accepted set.
  [[nodiscard]] std::unique_ptr<sim::Process> clone() const override;
  void assign_from(const sim::Process& other) override;

  [[nodiscard]] const std::set<Value>& accepted() const { return accepted_; }

 private:
  [[nodiscard]] bool valid_message(int round, const sim::Message& msg) const;

  Params params_;
  std::set<Value> accepted_;
};

[[nodiscard]] std::vector<std::unique_ptr<sim::Process>> make_sm_processes(
    int n, int m, NodeId sender, Value value,
    const SignatureAuthority& authority);

/// A traitorous *signing* equivocator: for messages whose entire signature
/// chain consists of faulty nodes, it substitutes `a` (even destinations)
/// or `b` (odd) and re-signs the chain with the faulty nodes' secrets —
/// the strongest attack signatures permit. Messages whose chain includes a
/// fault-free signer cannot be re-signed and pass unmodified.
[[nodiscard]] std::unique_ptr<sim::Adversary> signing_equivocator(
    const SignatureAuthority& authority, std::vector<NodeId> faulty, Value a,
    Value b);

/// Blind tamperer: rewrites values without re-signing (invalid chains —
/// receivers discard them, so this degenerates to omission).
[[nodiscard]] std::unique_ptr<sim::Adversary> blind_tamperer(Value lie);

}  // namespace da::protocols::authenticated
