// Experiment E1 — the Section 2 table: minimum number of nodes necessary
// for m/u-degradable agreement, N_min = 2m+u+1 (Theorem 2 + algorithm BYZ).
//
// Besides printing the paper's table, this harness *verifies* the bound
// empirically for the small cells: at N = N_min an exhaustive adversarial
// search finds no violation of D.1-D.4; at N = N_min - 1 a violation is
// found constructively. The sweeps run on the parallel scenario-sweep
// engine; `--jobs N` sets the worker count (the verdicts are identical
// for every value — see docs/SEARCH.md).

#include <cstdio>
#include <string>

#include "core/bounds.hpp"
#include "faults/behavior_search.hpp"
#include "faults/search.hpp"
#include "obs/bench_report.hpp"
#include "sweep/sweep.hpp"
#include "util/table.hpp"

namespace {

int g_jobs = 1;

constexpr int kMaxM = 3;
constexpr int kMaxU = 6;

// Empirical verification is exponential in N; cap the exhaustive sweep
// (--smoke lowers the cap so the ctest bench-smoke entry stays fast).
int g_verify_node_cap = 7;

std::string verify_cell(int m, int u) {
  const int n_min = da::bounds::min_nodes(m, u);
  if (n_min > g_verify_node_cap) return "(formula)";

  da::faults::SearchOptions options;
  options.seed = 7;
  da::sweep::SweepOptions sweep_options;
  sweep_options.jobs = g_jobs;

  const da::Config feasible{.n = n_min, .m = m, .u = u};
  const auto ok =
      da::faults::search_violation(feasible, options, sweep_options);
  if (ok.has_value()) return "ACHIEVABILITY FAILED";

  // For depth-2 cells small enough, upgrade to the adversary-complete
  // sweep: every behaviour of every faulty subset over the canonical
  // alphabet (see faults/behavior_search.hpp and docs/SEARCH.md).
  bool adversary_complete = false;
  if (m <= 1 &&
      da::faults::behavior_search_space(feasible) <= 2'000'000) {
    if (da::faults::exhaustive_behavior_search(
            feasible, da::faults::BehaviorSearchOptions{}, sweep_options)
            .has_value()) {
      return "ACHIEVABILITY FAILED (behaviour sweep)";
    }
    adversary_complete = true;
  }

  const std::string base = adversary_complete ? "complete" : "verified";
  if (n_min - 1 >= 2 && u < n_min - 1) {
    da::faults::SearchOptions hard = options;
    hard.all_senders = true;
    const da::Config infeasible{.n = n_min - 1, .m = m, .u = u};
    const auto broken =
        da::faults::search_violation(infeasible, hard, sweep_options);
    if (!broken.has_value()) return "TIGHTNESS UNCONFIRMED";
    return base + "+tight";
  }
  return base;
}

}  // namespace

int main(int argc, char** argv) {
  da::obs::BenchReporter reporter("bench_table_min_nodes", argc, argv);
  g_jobs = reporter.jobs();
  if (reporter.smoke()) g_verify_node_cap = 4;
  reporter.set_seed(7);
  std::puts("E1: minimum number of nodes for m/u-degradable agreement");
  std::puts("    (paper, Section 2: N_min = 2m+u+1; '-' where u < m)");
  std::printf("    sweep workers: --jobs %d\n\n", g_jobs);

  {
    std::vector<std::string> header{"u \\ m"};
    for (int m = 0; m <= kMaxM; ++m) header.push_back("m=" + std::to_string(m));
    da::Table table(header);
    table.set_name("min_nodes");
    for (int u = 1; u <= kMaxU; ++u) {
      std::vector<std::string> row{std::to_string(u)};
      for (int m = 0; m <= kMaxM; ++m) {
        row.push_back(u < m ? "-"
                            : std::to_string(da::bounds::min_nodes(m, u)));
      }
      table.add_row(row);
    }
    table.print();
  }

  std::puts("\nEmpirical check per cell:");
  std::puts("  verified = no violation at N_min across all fault subsets x");
  std::puts("             the standard adversary family");
  std::puts("  complete = stronger: no violation across ALL behaviours over");
  std::puts("             the canonical alphabet (adversary-complete sweep)");
  std::puts("  +tight   = additionally, violation FOUND at N_min - 1\n");

  {
    da::Table table({"m", "u", "N_min", "connectivity_min", "check"});
    table.set_name("empirical_check");
    for (int m = 0; m <= kMaxM; ++m) {
      for (int u = m; u <= kMaxU; ++u) {
        if (u < 1) continue;
        table.row(m, u, da::bounds::min_nodes(m, u),
                  da::bounds::min_connectivity(m, u), verify_cell(m, u));
      }
    }
    table.print();
  }
  return reporter.finish();
}
