// Experiment E2 — the Section 2 example: "given a system consisting of 7
// nodes, one may achieve 2/2-degradable agreement, or 1/4-degradable
// agreement, or 0/6-degradable agreement."
//
// For each point on the trade-off frontier we sweep the fault count and
// report what the protocol delivers: exact agreement (f <= m), degraded
// agreement with the guaranteed (m+1)-class (m < f <= u), or nothing
// (f > u). The rows show the paper's trade: m buys exact masking, u buys
// safe degradation, and 2m + u is a zero-sum budget.

#include <cstdio>

#include "core/agreement.hpp"
#include "core/bounds.hpp"
#include "faults/adversaries.hpp"
#include "obs/bench_report.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct SweepRow {
  int f = 0;
  int exact = 0;     // runs with full agreement on one value
  int degraded = 0;  // runs split into {value, V_d} with class >= m+1
  int violated = 0;  // runs violating the governing condition
  int runs = 0;
};

SweepRow sweep(const da::Config& config, int f, std::uint64_t seed) {
  const da::DegradableAgreement protocol(config);
  SweepRow row;
  row.f = f;
  for (int trial = 0; trial < 20; ++trial) {
    da::ScenarioSpec spec;
    spec.config = config;
    spec.sender = 0;
    spec.sender_value = da::Value::of(17);
    da::Rng rng(da::mix64(seed, static_cast<std::uint64_t>(trial)));
    const auto subset = rng.subset(config.n, f);
    spec.faulty.assign(subset.begin(), subset.end());

    auto adversary =
        trial % 2 == 0
            ? da::faults::equivocator(da::Value::of(17), da::Value::of(5))
            : da::faults::random_noise(seed + trial, 0, 30, 0.25);
    const da::ConditionReport report =
        protocol.run_and_check(spec, adversary.get());
    ++row.runs;
    if (!report.satisfied &&
        report.applied != da::Condition::kNone) {
      ++row.violated;
    } else if (report.default_class.empty() && report.violators.empty()) {
      ++row.exact;
    } else {
      ++row.degraded;
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  da::obs::BenchReporter reporter("bench_tradeoff_n7", argc, argv);
  std::puts("E2: the 7-node trade-off (paper, Section 2)");
  std::puts("    exact    = all fault-free nodes on one value (D.1/D.2)");
  std::puts("    degraded = {value, V_d} split, >= m+1 nodes agreeing (D.3/D.4)");
  std::puts("    broken   = governing condition violated (expected only f > u)\n");

  for (const da::Config& config : da::bounds::tradeoff_frontier(7)) {
    std::printf("%d/%d-degradable agreement (n = 7):\n", config.m, config.u);
    da::Table table({"f", "regime", "exact", "degraded", "broken"});
    for (int f = 0; f <= 6; ++f) {
      const char* regime = f <= config.m  ? "exact (<= m)"
                           : f <= config.u ? "degraded (<= u)"
                                           : "beyond u";
      if (f > config.u) {
        // Beyond u nothing is promised; report the regime only.
        table.row(f, regime, "-", "-", "(no guarantee)");
        continue;
      }
      const SweepRow row =
          sweep(config, f, 1000 + static_cast<std::uint64_t>(config.m));
      table.row(f, regime, row.exact, row.degraded, row.violated);
    }
    table.print();
    std::puts("");
  }

  std::puts("Reading: 2/2 masks two faults exactly but has no story for f=3;");
  std::puts("1/4 masks one fault and stays safe through f=4; 0/6 masks none");
  std::puts("but degrades safely through f=6. Same 7 nodes, traded per the");
  std::puts("paper's N_min = 2m+u+1 budget.");
  return reporter.finish();
}
