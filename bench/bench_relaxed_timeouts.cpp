// Experiment E6 — Section 6.1, relaxed message detection.
//
// With more than m faults, clock synchronization cannot be guaranteed, so
// a fault-free node "may incorrectly declare a message from another
// fault-free node to be absent" (false timeout). The paper's claim: BYZ
// still achieves the degraded conditions D.3/D.4 under that relaxation,
// and the exact conditions D.1/D.2 whenever f <= m (where clocks are
// synchronized and no false timeouts occur).
//
// We sweep the false-timeout probability and the fault count and report
// the fraction of runs satisfying the governing condition, plus how the
// default class grows with the drop rate (the cost of the relaxation is
// availability, never safety).

#include <cstdio>

#include "core/agreement.hpp"
#include "faults/adversaries.hpp"
#include "obs/bench_report.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct Cell {
  int satisfied = 0;
  int runs = 0;
  double avg_default_class = 0.0;
};

Cell sweep(const da::Config& config, int f, double drop, std::uint64_t seed) {
  const da::DegradableAgreement protocol(config);
  Cell cell;
  double default_total = 0.0;
  for (int trial = 0; trial < 25; ++trial) {
    da::sim::FalseTimeoutNetwork network(
        drop, da::mix64(seed, static_cast<std::uint64_t>(trial)));
    network.set_active(f > config.m);  // Section 6.1: relaxed only past m

    da::ScenarioSpec spec;
    spec.config = config;
    spec.sender = 0;
    spec.sender_value = da::Value::of(23);
    da::Rng rng(da::mix64(seed * 31, static_cast<std::uint64_t>(trial)));
    const auto subset = rng.subset(config.n, f);
    spec.faulty.assign(subset.begin(), subset.end());

    auto adversary =
        da::faults::equivocator(da::Value::of(23), da::Value::of(9));
    da::RunExtras extras;
    extras.network = &network;
    const da::sim::RunResult outcome =
        protocol.run(spec, adversary.get(), extras);
    const da::ConditionReport report =
        da::check_conditions(spec, outcome.decisions);
    ++cell.runs;
    cell.satisfied += report.satisfied ? 1 : 0;
    default_total += static_cast<double>(report.default_class.size());
  }
  cell.avg_default_class = default_total / cell.runs;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  da::obs::BenchReporter reporter("bench_relaxed_timeouts", argc, argv);
  std::puts("E6: false timeouts between fault-free nodes (Section 6.1)");
  const da::Config config{.n = 7, .m = 1, .u = 4};
  std::printf("    config: %s\n\n", config.to_string().c_str());

  for (const double drop : {0.0, 0.1, 0.3, 0.6}) {
    std::printf("false-timeout probability %.0f%% (active only when f > m):\n",
                drop * 100);
    da::Table table(
        {"f", "condition", "satisfied", "avg |default class|"});
    for (int f = 0; f <= config.u; ++f) {
      const Cell cell = sweep(config, f, drop,
                              7000 + static_cast<std::uint64_t>(drop * 100));
      const char* condition = f <= config.m ? "D.1 (exact)" : "D.3 (degraded)";
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", cell.avg_default_class);
      table.row(f, condition,
                std::to_string(cell.satisfied) + "/" +
                    std::to_string(cell.runs),
                buf);
    }
    table.print();
    std::puts("");
  }

  std::puts("Reading: the satisfied column stays full at every drop rate —");
  std::puts("false timeouts convert receivers to the default class (average");
  std::puts("grows with the drop rate) but never to a wrong value. Safety is");
  std::puts("preserved; only availability degrades, as Section 6.1 claims.");
  return reporter.finish();
}
