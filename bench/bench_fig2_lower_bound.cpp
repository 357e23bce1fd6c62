// Experiment E4 — Figure 2 / Theorem 2: m/u-degradable agreement is
// impossible with N = 2m+u nodes.
//
// The harness replays the proof's three fault scenarios on the 4-node
// system (m=1, u=2 — one node short of the 5 the bound demands), shows
// the two indistinguishability pairs as byte-identical per-node message
// transcripts, and exhibits the resulting D.3 violation in scenario (c).
// The group-simulation lift of Part II is replayed at larger N = 2m+u.
//
// It then runs both sides of the boundary through the parallel
// adversary-complete behaviour sweep (src/sweep/): every behaviour of
// every faulty subset at N = 4 (a violation must surface) and at N = 5
// (none may). `--jobs N` sets the scanning threads (the caller is worker
// 0, pool workers 1..N-1); per-shard counters are aggregated per worker
// so the run reports its own scaling.

#include <cstdio>
#include <map>

#include "core/agreement.hpp"
#include "faults/behavior_search.hpp"
#include "faults/figure2.hpp"
#include "obs/bench_report.hpp"
#include "util/table.hpp"

namespace {

using da::faults::figure2::Scenario;

struct Executed {
  da::sim::RunResult outcome;
  da::sim::Trace trace;
  da::ConditionReport report;
};

Executed execute(const Scenario& scenario) {
  Executed e;
  const da::DegradableAgreement protocol(scenario.spec.config);
  da::RunExtras extras;
  extras.trace = &e.trace;
  e.outcome = protocol.run(scenario.spec, scenario.adversary.get(), extras);
  e.report = da::check_conditions(scenario.spec, e.outcome.decisions);
  return e;
}

void run_at(int n) {
  std::printf("--- N = %d (config 1/%d-degradable: needs %d nodes) ---\n", n,
              n - 2, n + 1);
  const auto sa = da::faults::figure2::scenario_a(n);
  const auto sb = da::faults::figure2::scenario_b(n);
  const auto sc = da::faults::figure2::scenario_c(n);
  const Executed ea = execute(sa);
  const Executed eb = execute(sb);
  const Executed ec = execute(sc);

  da::Table table({"scenario", "faulty", "condition", "satisfied",
                   "decision(A=1)", "decision(B=2)"});
  table.set_name("figure2_scenarios_n" + std::to_string(n));
  const auto row = [&table](const Scenario& s, const Executed& e) {
    std::string faulty;
    for (da::NodeId id : s.spec.faulty) {
      faulty += (faulty.empty() ? "" : ",") + std::to_string(id);
    }
    const auto decision_str = [&e, &s](da::NodeId id) {
      return s.spec.is_faulty(id) ? std::string("(faulty)")
                                  : e.outcome.decisions.at(id).to_string();
    };
    table.row(s.name, faulty, da::to_string(e.report.applied),
              e.report.satisfied ? "yes" : "NO", decision_str(1),
              decision_str(2));
  };
  row(sa, ea);
  row(sb, eb);
  row(sc, ec);
  table.print();

  std::printf(
      "indistinguishability: B's transcript (a) == (b): %s;  A's (b) == (c): "
      "%s\n",
      ea.trace.indistinguishable_for(2, eb.trace) ? "IDENTICAL" : "differs",
      eb.trace.indistinguishable_for(1, ec.trace) ? "IDENTICAL" : "differs");
  std::printf(
      "=> node A is forced to beta in (c), but D.3 allows only alpha or "
      "V_d: %s\n\n",
      ec.report.satisfied ? "??? (expected a violation)" : "VIOLATION, QED");
}

void print_sweep_report(const da::sweep::SweepStats& stats) {
  std::printf(
      "  jobs=%d  shards=%llu  executions=%llu (canonical) / %llu "
      "(performed)  wall=%.1f ms\n",
      stats.jobs, static_cast<unsigned long long>(stats.shards),
      static_cast<unsigned long long>(stats.executions),
      static_cast<unsigned long long>(stats.performed), stats.wall_ms);
  double busy_total = 0.0;
  da::Table table({"worker", "shards", "executions", "busy_ms"});
  table.set_name("sweep_workers");
  for (const auto& w : da::sweep::summarize_workers(stats)) {
    table.row(w.worker, w.shards, w.executions,
              static_cast<std::int64_t>(w.busy_ms));
    if (w.worker >= 0) busy_total += w.busy_ms;
  }
  table.print();
  if (stats.wall_ms > 0.0) {
    std::printf("  parallel efficiency: %.2fx (busy %.1f ms / wall %.1f ms)\n",
                busy_total / stats.wall_ms, busy_total, stats.wall_ms);
  }
}

/// The behaviour sweep on both sides of the Theorem 2 boundary: the
/// N = 2m+u system must yield a violating behaviour, the N = 2m+u+1
/// system must survive every behaviour (executable Theorem 1).
void sweep_boundary(int jobs) {
  da::sweep::SweepOptions options;
  options.jobs = jobs;

  std::puts("\nAdversary-complete behaviour sweep across the boundary:");
  {
    const da::Config below{.n = 4, .m = 1, .u = 2};
    da::sweep::SweepStats stats;
    const auto violation =
        da::faults::exhaustive_behavior_search(
            below, da::faults::BehaviorSearchOptions{}, options, &stats);
    std::printf("\nN = 4 (one node short): %s\n",
                violation.has_value()
                    ? ("violation FOUND (expected): " +
                       violation->spec.to_string() + " via " +
                       violation->adversary)
                          .c_str()
                    : "??? no violation (expected one)");
    print_sweep_report(stats);
  }
  {
    const da::Config tight{.n = 5, .m = 1, .u = 2};
    da::sweep::SweepStats stats;
    const auto violation =
        da::faults::exhaustive_behavior_search(
            tight, da::faults::BehaviorSearchOptions{}, options, &stats);
    std::printf("\nN = 5 (the bound, %llu behaviours): %s\n",
                static_cast<unsigned long long>(
                    da::faults::behavior_search_space(tight)),
                violation.has_value() ? "??? VIOLATION (expected none)"
                                      : "no violation — Theorem 1 holds");
    print_sweep_report(stats);
  }
}

}  // namespace

int main(int argc, char** argv) {
  da::obs::BenchReporter reporter("bench_fig2_lower_bound", argc, argv);
  std::puts("E4: Theorem 2 lower bound, Figure 2 made executable");
  std::printf("    alpha = %s, beta = %s, both distinct from V_d\n\n",
              da::faults::figure2::kAlpha.to_string().c_str(),
              da::faults::figure2::kBeta.to_string().c_str());

  run_at(4);  // the figure itself
  run_at(6);  // Part II group lift
  run_at(8);

  sweep_boundary(reporter.jobs());

  std::puts("\nWith one more node (N = 2m+u+1) the exhaustive sweeps of");
  std::puts("bench_table_min_nodes find no violation: the bound is tight.");
  return reporter.finish();
}
