// Experiment E6b — Section 6 mechanistically: rounds driven by real
// (drifting, offset) clocks and timeout-based absence detection, instead
// of the abstract synchronous rounds of the other benches.
//
// Two sweeps on the 1/4-degradable 7-node system:
//  1. timeout margin: with synchronized clocks, a timeout above the
//     latency+skew bound produces zero false timeouts (assumption (b) of
//     Section 4 holds); squeezing it below the bound produces organic
//     false timeouts — yet D.3 keeps holding in the degraded fault range.
//  2. clock skew: growing offset spread at a fixed timeout, i.e. exactly
//     the "clock synchronization lost past m faults" situation of
//     Section 6.1.

#include <cstdio>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "event/event_runner.hpp"
#include "faults/adversaries.hpp"
#include "obs/bench_report.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

const da::Config kConfig{.n = 7, .m = 1, .u = 4};

struct Cell {
  std::size_t false_timeouts = 0;
  int satisfied = 0;
  int runs = 0;
  double avg_default = 0.0;
};

Cell sweep(double timeout, double offset_spread, int f, std::uint64_t seed) {
  Cell cell;
  double defaults = 0;
  for (int trial = 0; trial < 15; ++trial) {
    da::ScenarioSpec spec;
    spec.config = kConfig;
    spec.sender = 0;
    spec.sender_value = da::Value::of(42);
    da::Rng rng(da::mix64(seed, static_cast<std::uint64_t>(trial)));
    const auto subset = rng.subset(kConfig.n, f);
    spec.faulty.assign(subset.begin(), subset.end());

    auto adversary =
        da::faults::equivocator(da::Value::of(42), da::Value::of(9));
    da::sim::RunOptions options;
    options.faulty = spec.faulty;
    options.adversary = adversary.get();

    da::event::TimingModel timing;
    timing.timeout = timeout;
    timing.seed = seed + trial;
    da::event::EventRunner runner(
        da::core::make_byz_processes(kConfig, spec.sender, spec.sender_value),
        std::move(options), timing,
        da::event::skewed_clocks(kConfig.n, offset_spread, 1e-5,
                                 seed * 7 + trial));
    const auto result = runner.run();
    const auto report = da::check_conditions(spec, result.base.decisions);
    ++cell.runs;
    cell.false_timeouts += result.false_timeouts;
    cell.satisfied += report.satisfied ? 1 : 0;
    defaults += static_cast<double>(report.default_class.size());
  }
  cell.avg_default = defaults / cell.runs;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  da::obs::BenchReporter reporter("bench_event_timing", argc, argv);
  std::puts("E6b: clock-driven rounds and timeout-based absence detection");
  std::printf("     config %s, link latency U[0.01, 0.10], period 1.0\n\n",
              kConfig.to_string().c_str());

  std::puts("timeout sweep (clock offsets +-0.02, f = 3 > m):");
  {
    da::Table table({"timeout", "false timeouts (total)", "D.3 satisfied",
                     "avg |default class|"});
    for (const double timeout : {0.05, 0.08, 0.15, 0.30, 0.60}) {
      const Cell cell = sweep(timeout, 0.02, 3, 61);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", timeout);
      char buf2[32];
      std::snprintf(buf2, sizeof buf2, "%.2f", cell.avg_default);
      table.row(buf, cell.false_timeouts,
                std::to_string(cell.satisfied) + "/" +
                    std::to_string(cell.runs),
                buf2);
    }
    table.print();
  }

  std::puts("\nskew sweep (timeout 0.30, f = 3 > m):");
  {
    da::Table table({"offset spread", "false timeouts (total)",
                     "D.3 satisfied", "avg |default class|"});
    for (const double spread : {0.0, 0.05, 0.15, 0.30, 0.60}) {
      const Cell cell = sweep(0.30, spread, 3, 62);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", spread);
      char buf2[32];
      std::snprintf(buf2, sizeof buf2, "%.2f", cell.avg_default);
      table.row(buf, cell.false_timeouts,
                std::to_string(cell.satisfied) + "/" +
                    std::to_string(cell.runs),
                buf2);
    }
    table.print();
  }

  std::puts("\nexact regime control (f = 1 <= m, synchronized clocks,");
  std::puts("timeout 0.30 > latency+skew): assumption (b) holds, D.1 exact:");
  {
    da::Table table({"f", "false timeouts", "D.1 satisfied"});
    const Cell cell = sweep(0.30, 0.01, 1, 63);
    table.row(1, cell.false_timeouts,
              std::to_string(cell.satisfied) + "/" +
                  std::to_string(cell.runs));
    table.print();
  }

  std::puts("\nReading: false timeouts appear exactly when the timeout drops");
  std::puts("below the latency+skew margin or the clocks drift apart — and");
  std::puts("the degraded conditions absorb them (default class grows, the");
  std::puts("satisfied column stays full), as Section 6.1 claims.");
  return reporter.finish();
}
