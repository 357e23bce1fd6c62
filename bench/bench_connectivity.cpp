// Experiment E5 — Theorem 3: network connectivity of at least m+u+1 is
// necessary (and sufficient) for m/u-degradable agreement.
//
// Three demonstrations:
//  1. The cut-set indistinguishability argument, executable: with
//     connectivity kappa = m+u, *no* decision threshold over the kappa
//     path copies can satisfy D.1 and D.3 simultaneously; with
//     kappa = m+u+1 the threshold u+1 satisfies both.
//  2. Degradable relay channels over concrete k-connected graphs: a value
//     routed over m+u+1 vertex-disjoint paths survives m corruptions
//     exactly and degrades (value-or-V_d) through u.
//  3. The separator graph realizing the proof's cut F = F1 u F2.

#include <cstdio>

#include "core/agreement.hpp"
#include "faults/adversaries.hpp"
#include "graph/connectivity.hpp"
#include "graph/topology.hpp"
#include "obs/bench_report.hpp"
#include "relay/cutset_adversary.hpp"
#include "relay/disjoint_relay.hpp"
#include "relay/graph_network.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

void threshold_demo(int m, int u) {
  std::printf("Threshold probe, m=%d u=%d (cut copies: %d beta-forged vs %d "
              "honest):\n",
              m, u, m, u);
  da::Table table({"kappa", "some threshold satisfies D.1 & D.3?"});
  for (int kappa = m + u - 1; kappa <= m + u + 2; ++kappa) {
    if (kappa < 1) continue;
    const bool works = da::relay::any_threshold_works(m, u, kappa);
    std::string label = std::to_string(kappa);
    if (kappa == m + u) label += "  (= m+u)";
    if (kappa == m + u + 1) label += "  (= m+u+1)";
    table.row(label, works ? "yes" : "no");
  }
  table.print();
  std::puts("");
}

void relay_demo(int m, int u, int n, std::uint64_t seed) {
  const int k = m + u + 1;
  const auto g = da::graph::random_at_least_k_connected(n, k, 0.1, seed);
  std::printf("Degradable relay over a %d-connected graph (n=%d, "
              "connectivity=%d, m=%d, u=%d, %d disjoint paths):\n",
              k, n, da::graph::vertex_connectivity(g), m, u, k);

  const da::relay::HopCorruption forge = [](da::NodeId, da::Value) {
    return da::Value::of(999);
  };
  da::Table table({"faulty interior nodes", "delivered true", "delivered V_d",
                   "delivered WRONG"});
  da::Rng rng(seed);
  for (int f = 0; f <= u + 1; ++f) {
    int truth = 0;
    int dflt = 0;
    int wrong = 0;
    for (int trial = 0; trial < 40; ++trial) {
      // Sample interior faulty nodes (never the endpoints 0 and n-1).
      std::vector<da::NodeId> faulty;
      for (const int x : rng.subset(n - 2, f)) faulty.push_back(x + 1);
      const auto result = da::relay::degradable_channel_send(
          g, 0, n - 1, da::Value::of(7), m, u, faulty, forge);
      if (result.delivered == da::Value::of(7)) {
        ++truth;
      } else if (result.delivered.is_default()) {
        ++dflt;
      } else {
        ++wrong;
      }
    }
    std::string label = std::to_string(f);
    if (f == m) label += " (= m)";
    if (f == u) label += " (= u)";
    if (f == u + 1) label += " (> u)";
    table.row(label, truth, dflt, wrong);
  }
  table.print();
  std::puts("");
}

// End-to-end: BYZ(m,m) running over a sparse graph through degradable
// relay channels (faulty nodes equivocate at protocol level AND corrupt
// copies they relay in transit).
void end_to_end_demo() {
  const da::Config config{.n = 9, .m = 1, .u = 2};
  const da::relay::HopCorruption forge = [](da::NodeId, da::Value v) {
    return da::Value::of(v.raw() + 9999);
  };

  struct Topology {
    const char* name;
    da::graph::Graph graph;
  };
  const Topology topologies[] = {
      {"circulant C9(1,2), kappa=4 = m+u+1", da::graph::circulant(9, 2)},
      {"separator 3|3|3, kappa=3 = m+u", da::graph::separator_graph(3, 3, 3)},
  };

  std::puts("BYZ(1,1) for 1/2-degradable agreement, end-to-end over sparse "
            "graphs:");
  da::Table table({"topology", "f", "condition", "satisfied (20 runs)"});
  for (const auto& [name, graph] : topologies) {
    for (int f = 1; f <= config.u; ++f) {
      int ok = 0;
      da::Rng rng(static_cast<std::uint64_t>(f) * 5 + 1);
      for (int trial = 0; trial < 20; ++trial) {
        da::ScenarioSpec spec;
        spec.config = config;
        spec.sender = 0;
        spec.sender_value = da::Value::of(42);
        const auto subset = rng.subset(config.n, f);
        spec.faulty.assign(subset.begin(), subset.end());

        da::relay::GraphRelayNetwork network(graph, config.m, config.u,
                                             spec.faulty, forge);
        auto adversary =
            da::faults::equivocator(da::Value::of(42), da::Value::of(13));
        da::RunExtras extras;
        extras.network = &network;
        const da::DegradableAgreement protocol(config);
        const da::Outcome outcome =
            protocol.run(spec, adversary.get(), extras);
        ok += da::check_conditions(spec, outcome.decisions).satisfied ? 1 : 0;
      }
      const char* condition = f <= config.m ? "D.1/D.2" : "D.3/D.4";
      table.row(name, f, condition,
                std::to_string(ok) + "/20");
    }
  }
  table.print();
  std::puts("");
}

void separator_demo(int m, int u) {
  const auto g = da::graph::separator_graph(3, m + u, 3);
  const auto cut = da::graph::min_vertex_cut(g, 0, g.n() - 1);
  std::printf("Separator graph (two cliques bridged by %d nodes): "
              "connectivity = %d, min cut = {",
              m + u, da::graph::vertex_connectivity(g));
  for (std::size_t i = 0; i < cut.size(); ++i) {
    std::printf("%s%d", i ? "," : "", cut[i]);
  }
  std::puts("} -- exactly the proof's F = F1 u F2, one short of m+u+1.\n");
}

}  // namespace

int main(int argc, char** argv) {
  da::obs::BenchReporter reporter("bench_connectivity", argc, argv);
  std::puts("E5: Theorem 3 — connectivity >= m+u+1 necessary and sufficient\n");
  threshold_demo(1, 2);
  threshold_demo(2, 3);
  relay_demo(1, 2, 11, 42);
  relay_demo(2, 3, 13, 43);
  end_to_end_demo();
  separator_demo(1, 2);
  std::puts("Reading: at kappa = m+u no rule exists (necessity); at m+u+1 the");
  std::puts("VOTE(u+1, m+u+1) relay gives exactly the D.1/D.3 channel shape");
  std::puts("(sufficiency), with the wrong-value column zero through f = u.");
  return reporter.finish();
}
