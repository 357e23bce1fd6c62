// The README's Quickstart snippet, compiled as-is so it can never rot.
//
// Everything below the marker line is byte-identical to the fenced
// ```cpp block in README.md's "Quickstart" section; tools/docs_check.sh
// (a ctest entry) diffs the two and fails the suite if they drift.
//
// readme-quickstart-begin
#include <cstdio>

#include "da/da.hpp"

int main() {
  // 1/4-degradable agreement on 7 nodes (min_nodes(1, 4) == 7).
  const da::Config config{.n = 7, .m = 1, .u = 4};
  const da::DegradableAgreement protocol(config);

  da::ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = da::Value::of(42);
  spec.faulty = {2, 3, 5};  // f = 3 > m: the degraded range

  auto adversary = da::faults::equivocator(da::Value::of(42),
                                           da::Value::of(13));
  const da::sim::RunResult result =
      protocol.run(spec, adversary.get());  // or run_threaded
  const da::ConditionReport report =
      da::check_conditions(spec, result.decisions);
  // report.applied == da::Condition::kD3, report.satisfied == true:
  // every fault-free receiver decided 42 or V_d, >= m+1 nodes agree.
  std::printf("%s -> %s\n", da::to_string(report.applied),
              report.satisfied ? "satisfied" : "violated");
  return report.satisfied ? 0 : 1;
}
