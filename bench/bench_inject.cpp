// Injection-layer overhead: the cost of routing every message through
// src/inject/'s InjectionNetwork, measured on the paper's 7-node
// 1/4-degradable system. Three transports are compared:
//
//   none      — RunOptions.network = nullptr (the seed baseline);
//   inactive  — an InjectionNetwork with an empty FaultPlan (the price of
//               the hook itself, which must stay within noise);
//   active    — a seed-derived plan with drop/dup/delay rates and a crash
//               window (the price of actually perturbing traffic).
//
// The differential sweep row at the bottom exercises the full
// three-runtime replay pipeline per case (tests assert its correctness;
// this reports its throughput).

#include <chrono>
#include <cstdio>

#include "core/byz.hpp"
#include "faults/adversaries.hpp"
#include "inject/differ.hpp"
#include "inject/injection_network.hpp"
#include "obs/bench_report.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

const da::Config kConfig{.n = 7, .m = 1, .u = 4};

double run_batch(int runs, const da::inject::FaultPlan* plan) {
  auto adversary = da::faults::equivocator(da::Value::of(42), da::Value::of(9));
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < runs; ++i) {
    da::sim::RunOptions options;
    options.faulty = {2, 5};
    options.adversary = adversary.get();
    std::optional<da::inject::InjectionNetwork> network;
    if (plan != nullptr) {
      network.emplace(*plan);
      options.network = &*network;
    }
    da::sim::SyncRunner runner(
        da::core::make_byz_processes(kConfig, 0, da::Value::of(42)),
        std::move(options));
    (void)runner.run();
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  da::obs::BenchReporter reporter("bench_inject", argc, argv);
  reporter.set_seed(1);
  const int runs = reporter.smoke() ? 20 : 400;

  std::puts("Injection-layer overhead on BYZ(1,1), n=7 (sim runtime)");
  std::printf("  %d runs per transport\n\n", runs);

  const da::inject::FaultPlan inactive;  // no rules, no rates: must be free
  const da::inject::FaultPlan active =
      da::inject::FaultPlan::from_seed(7, kConfig.n, 2);

  (void)run_batch(runs / 4 + 1, nullptr);  // warm-up
  const double none_ms = run_batch(runs, nullptr);
  const double inactive_ms = run_batch(runs, &inactive);
  const double active_ms = run_batch(runs, &active);

  da::Table table({"transport", "total ms", "us/run", "vs none"});
  const auto row = [&](const char* name, double ms) {
    char us[32];
    char rel[32];
    std::snprintf(us, sizeof(us), "%.1f", 1000.0 * ms / runs);
    std::snprintf(rel, sizeof(rel), "%+.1f%%",
                  100.0 * (ms - none_ms) / none_ms);
    char total[32];
    std::snprintf(total, sizeof(total), "%.2f", ms);
    table.add_row({name, total, us, rel});
  };
  row("none", none_ms);
  row("inactive plan", inactive_ms);
  row("active plan", active_ms);
  table.print();

  // Throughput of the full differential replay (3 runtimes per case).
  const std::uint64_t cases = reporter.smoke() ? 6 : 60;
  const auto start = std::chrono::steady_clock::now();
  const da::inject::DifferentialSweepResult sweep =
      da::inject::sweep_differential(1, cases, 4);
  const auto end = std::chrono::steady_clock::now();
  const double sweep_ms =
      std::chrono::duration<double, std::milli>(end - start).count();

  std::puts("");
  da::Table differ({"differential cases", "mismatches", "total ms",
                    "ms/case"});
  char per_case[32];
  std::snprintf(per_case, sizeof(per_case), "%.2f",
                sweep_ms / static_cast<double>(cases));
  char total[32];
  std::snprintf(total, sizeof(total), "%.1f", sweep_ms);
  differ.add_row({std::to_string(cases),
                  std::to_string(sweep.first_mismatch.has_value() ? 1 : 0),
                  total, per_case});
  differ.print();

  return reporter.finish(sweep.first_mismatch.has_value() ? 1 : 0);
}
