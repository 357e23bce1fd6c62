// Quickstart: run one m/u-degradable agreement, inspect the result, and
// check it against the paper's conditions D.1-D.4.
//
//   $ ./quickstart
//
// A 7-node system configured for 1/4-degradable agreement: Byzantine
// agreement while at most 1 node is faulty, safe degraded agreement (every
// fault-free node on the sender's value or the default V_d) through 4
// faults — more than a third of the system, which classical Byzantine
// agreement cannot touch.

#include <cstdio>

#include "da/da.hpp"

int main() {
  // 1. Pick a configuration. min_nodes(1, 4) == 7, so n = 7 is exactly
  //    enough (Theorem 2).
  const da::Config config{.n = 7, .m = 1, .u = 4};
  std::printf("config: %s (needs >= %d nodes, connectivity >= %d)\n",
              config.to_string().c_str(),
              da::bounds::min_nodes(config.m, config.u),
              da::bounds::min_connectivity(config.m, config.u));

  const da::DegradableAgreement protocol(config);

  // 2. Describe a scenario: node 0 sends 42; nodes 2, 3 and 5 are
  //    Byzantine (f = 3 > m: we are in the degraded range).
  da::ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = da::Value::of(42);
  spec.faulty = {2, 3, 5};

  // 3. Give the faulty nodes a strategy. Equivocating between the true
  //    value and a forgery is the classical worst case.
  auto adversary = da::faults::equivocator(da::Value::of(42),
                                           da::Value::of(13));

  // 4. Run BYZ(m,m) — here on the deterministic simulator; use
  //    run_threaded() for one OS thread per node.
  const da::sim::RunResult result = protocol.run(spec, adversary.get());
  std::printf("\n%d rounds, %zu messages\n", result.rounds,
              result.messages_sent);
  for (const auto& [node, decision] : result.decisions) {
    std::printf("  node %d decided %-4s%s\n", node,
                decision.to_string().c_str(),
                spec.is_faulty(node)  ? "  (faulty)"
                : node == spec.sender ? "  (sender)"
                                      : "");
  }

  // 5. Check the paper's conditions.
  const da::ConditionReport report =
      da::check_conditions(spec, result.decisions);
  std::printf("\ngoverning condition: %s -> %s\n",
              da::to_string(report.applied),
              report.satisfied ? "satisfied" : "VIOLATED");
  std::printf("value class: %zu node(s), default class: %zu node(s)\n",
              report.value_class.size(), report.default_class.size());
  std::printf("corollary (>= m+1 fault-free agree): %s (largest class %d)\n",
              report.corollary_m_plus_1 ? "holds" : "FAILS",
              report.largest_agreeing_class);
  return report.satisfied ? 0 : 1;
}
