// Experiment E10 — ablation: the threshold vote is load-bearing.
//
// BYZ(t,m) resolves every recursion level with VOTE(n_sub-1-m, n_sub-1):
// a value needs n_sub-1-m confirmations or the node falls back to V_d
// (also on ties). The obvious alternative — simple majority, i.e. exactly
// Lamport's OM(m) resolve over the identical message pattern — satisfies
// D.1/D.2 for f <= m just as well, but in the degraded range m < f <= u a
// majority can be *manufactured* by the faulty nodes, and a fault-free
// receiver adopts a wrong value: D.3/D.4 collapse.
//
// We run both resolvers over the same executions and count violations of
// the governing condition per fault count.

#include <cstdio>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "faults/adversaries.hpp"
#include "faults/search.hpp"
#include "obs/bench_report.hpp"
#include "protocols/common/eig_process.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

const da::Config kConfig{.n = 7, .m = 1, .u = 4};

struct Tally {
  int runs = 0;
  int violations = 0;
};

/// Runs the EIG protocol with the given resolver and checks D.1-D.4.
Tally sweep(std::shared_ptr<const da::protocols::Resolver> resolver, int f) {
  Tally tally;
  const auto family = da::faults::standard_family(3);
  da::faults::for_each_subset(
      kConfig.n, f, [&](const std::vector<da::NodeId>& faulty) {
        for (const auto& factory : family) {
          da::ScenarioSpec spec;
          spec.config = kConfig;
          spec.sender = 0;
          spec.sender_value = da::Value::of(23);
          spec.faulty = faulty;
          auto adversary = factory.make(spec);

          da::sim::RunOptions options;
          options.faulty = faulty;
          options.adversary = adversary.get();
          da::sim::SyncRunner runner(
              da::protocols::make_eig_processes(
                  kConfig.n, spec.sender, spec.sender_value,
                  da::core::byz_depth(kConfig.m), resolver),
              options);
          const auto result = runner.run();
          const auto report = da::check_conditions(spec, result.decisions);
          ++tally.runs;
          tally.violations += report.satisfied ? 0 : 1;
        }
      });
  return tally;
}

}  // namespace

int main(int argc, char** argv) {
  da::obs::BenchReporter reporter("bench_ablation_vote", argc, argv);
  std::puts("E10: ablation — VOTE(n-1-m, n-1) vs simple majority resolve");
  std::printf("     config %s, identical message pattern, exhaustive fault "
              "subsets x adversary family\n\n",
              kConfig.to_string().c_str());

  const auto byz_rule =
      std::make_shared<da::protocols::ByzResolver>(kConfig.m);
  const auto majority_rule =
      std::make_shared<da::protocols::MajorityResolver>();

  da::Table table({"f", "regime", "threshold-vote violations",
                   "majority violations"});
  for (int f = 0; f <= kConfig.u; ++f) {
    const Tally byz = sweep(byz_rule, f);
    const Tally maj = sweep(majority_rule, f);
    const char* regime = f <= kConfig.m ? "exact" : "degraded";
    table.row(f, regime,
              std::to_string(byz.violations) + "/" + std::to_string(byz.runs),
              std::to_string(maj.violations) + "/" + std::to_string(maj.runs));
  }
  table.print();

  std::puts("\nReading: both resolvers are clean while f <= m. In the");
  std::puts("degraded range the majority resolve lets colluders fabricate a");
  std::puts("false majority at some receiver (violating D.3/D.4), while the");
  std::puts("threshold vote defaults instead — the design choice the whole");
  std::puts("degradable guarantee rests on.");
  return reporter.finish();
}
