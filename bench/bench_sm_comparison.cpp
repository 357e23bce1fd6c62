// Experiment E11 — oral messages vs signed messages.
//
// The paper works in the oral-message model, where Byzantine agreement
// needs 3m+1 nodes and degradable agreement buys a safe middle ground for
// 2m+u+1. Lamport's signed-messages algorithm SM(m) is the classical
// counterpoint: with unforgeable signatures m traitors are tolerated by
// just m+2 nodes. This harness puts the three side by side:
//
//   - node budgets for the same masking target m;
//   - what survives at the same *total* node budget (7 nodes);
//   - message volumes (SM relays each value once per node: polynomial,
//     vs the oral protocols' N^{m+1});
//   - what signatures do NOT fix: the connectivity bound of Theorem 3
//     (a vertex cut silences signed messages just as well).

#include <cstdio>

#include "core/agreement.hpp"
#include "core/bounds.hpp"
#include "faults/adversaries.hpp"
#include "obs/bench_report.hpp"
#include "protocols/authenticated/sm.hpp"
#include "protocols/lamport/om.hpp"
#include "relay/cutset_adversary.hpp"
#include "sim/round_engine.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

using da::protocols::authenticated::SignatureAuthority;

da::sim::RunResult run_sm(int n, int m, const std::vector<da::NodeId>& faulty,
                          const SignatureAuthority& authority) {
  da::sim::RunOptions options;
  options.faulty = faulty;
  auto adversary = da::protocols::authenticated::signing_equivocator(
      authority, faulty, da::Value::of(5), da::Value::of(8));
  options.adversary = adversary.get();
  da::sim::RoundEngine runner(
      da::protocols::authenticated::make_sm_processes(n, m, 0,
                                                      da::Value::of(5),
                                                      authority),
      options);
  return runner.run();
}

}  // namespace

int main(int argc, char** argv) {
  da::obs::BenchReporter reporter("bench_sm_comparison", argc, argv);
  std::puts("E11: oral (OM / BYZ) vs signed (SM) message models\n");

  std::puts("node budget to mask m traitors:");
  {
    da::Table table({"m", "OM(m) oral", "m/u-degradable (u=m+2)",
                     "SM(m) signed"});
    for (int m = 1; m <= 4; ++m) {
      table.row(m, da::bounds::lamport_min_nodes(m),
                da::bounds::min_nodes(m, m + 2), m + 2);
    }
    table.print();
  }

  std::puts("\nwhat a fixed budget of 7 nodes supports:");
  {
    da::Table table({"model", "masking m", "safe degradation u", "notes"});
    table.row("OM (oral)", 2, 2, "nothing past f=2");
    table.row("1/4-degradable (oral)", 1, 4, "safe splits to f=4");
    table.row("0/6-degradable (oral)", 0, 6, "safe splits to f=6");
    table.row("SM (signed)", 5, 5, "agreement itself to f=5");
    table.print();
  }

  std::puts("\nmessage volume at n = 7 (fault-free run):");
  {
    const SignatureAuthority authority(1, 7);
    da::Table table({"protocol", "rounds", "messages"});
    for (int m = 1; m <= 3; ++m) {
      const auto sm = run_sm(7, m, {}, authority);
      table.row("SM(" + std::to_string(m) + ")", sm.rounds,
                sm.messages_sent);
      table.row("OM/BYZ(" + std::to_string(m) + ")", m + 1,
                da::protocols::lamport::om_message_count(7, m));
    }
    table.print();
  }

  std::puts("\nsigned agreement under traitorous senders (n=7):");
  {
    const SignatureAuthority authority(2, 7);
    da::Table table({"f (sender faulty + others)", "fault-free decisions",
                     "agreement?"});
    for (int f = 1; f <= 5; ++f) {
      std::vector<da::NodeId> faulty;
      for (int i = 0; i < f; ++i) faulty.push_back(i);  // sender included
      const auto result = run_sm(7, 5, faulty, authority);
      std::string decisions;
      bool agree = true;
      da::Value first = da::Value::def();
      bool first_set = false;
      for (const auto& [node, decision] : result.decisions) {
        if (std::find(faulty.begin(), faulty.end(), node) != faulty.end()) {
          continue;
        }
        decisions += (decisions.empty() ? "" : ",") + decision.to_string();
        if (!first_set) {
          first = decision;
          first_set = true;
        } else if (decision != first) {
          agree = false;
        }
      }
      table.row(f, decisions, agree ? "yes" : "NO");
    }
    table.print();
  }

  std::puts("\nwhat signatures do NOT fix — the Theorem 3 cut bound:");
  {
    da::Table table({"connectivity", "any rule satisfies D.1 & D.3?"});
    for (int kappa = 3; kappa <= 4; ++kappa) {
      table.row(kappa,
                da::relay::any_threshold_works(1, 2, kappa) ? "yes" : "no");
    }
    table.print();
    std::puts("a vertex cut can silence signed messages exactly as it");
    std::puts("silences oral ones; connectivity m+u+1 remains necessary.");
  }

  std::puts("\nReading: signatures dissolve the 3m+1 node bound (SM needs");
  std::puts("m+2), at polynomial message cost — but the paper's oral-model");
  std::puts("trade-off remains the relevant one when signatures are");
  std::puts("unavailable (the paper's FTMP/FTP-class hardware), and the");
  std::puts("connectivity lower bound binds either way.");
  return reporter.finish();
}
