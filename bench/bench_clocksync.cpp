// Experiment E7 — Section 6: clock synchronization.
//
// Part 1: the classical landscape. Interactive convergence (CNV)
//   synchronizes while 3f < n and is defeated at 3f >= n [3,5]; witness
//   clocks (Section 6.2) restore the margin without adding processors.
// Part 2: the paper's *degradable clock synchronization* problem
//   (Section 6.1), evaluated empirically: with n > 2m+u clocks and
//   m < f <= u faulty, either >= m+1 fault-free clocks synchronize or
//   >= m+1 fault-free nodes detect the existence of more than m faults.
//   The paper conjectures this is achievable; our agreement-based round
//   is one algorithm in that shape, and the table reports how often the
//   disjunction holds.

#include <cstdio>
#include <memory>

#include "clocksync/convergence.hpp"
#include "clocksync/degradable_sync.hpp"
#include "clocksync/witness.hpp"
#include "faults/adversaries.hpp"
#include "obs/bench_report.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

da::clocksync::ClockEnsemble make_ensemble(int n, std::vector<da::NodeId> faulty,
                                           std::uint64_t seed) {
  da::Rng rng(seed);
  std::vector<da::clocksync::HardwareClock> clocks;
  for (int i = 0; i < n; ++i) {
    clocks.emplace_back((rng.uniform() * 2 - 1) * 1e-4,
                        (rng.uniform() * 2 - 1) * 1e-6);
  }
  const da::clocksync::FaultyReading wild = [](da::NodeId reader,
                                               da::NodeId owner, double t) {
    return t + 0.4 * ((reader * 7 + owner * 3) % 5 - 2);
  };
  return da::clocksync::ClockEnsemble(std::move(clocks), std::move(faulty),
                                      wild);
}

void cnv_table() {
  constexpr double kWindow = 0.05;
  std::puts("CNV (interactive convergence), n = 7, window 0.05, worst-case");
  std::puts("two-faced clocks (answer just inside each reader's window):");
  da::Table table({"faulty clocks", "3f < n?", "final skew", "within window?"});
  for (int f = 0; f <= 3; ++f) {
    da::Rng rng(50 + static_cast<std::uint64_t>(f));
    std::vector<da::clocksync::HardwareClock> clocks;
    for (int i = 0; i < 7; ++i) {
      clocks.emplace_back((rng.uniform() * 2 - 1) * 1e-4,
                          (rng.uniform() * 2 - 1) * 1e-6);
    }
    std::vector<da::NodeId> faulty;
    for (int i = 0; i < f; ++i) faulty.push_back(6 - i);
    // Reader-relative two-faced clocks: the impossibility adversary [3,5].
    auto slot = std::make_shared<da::clocksync::ClockEnsemble*>(nullptr);
    const da::clocksync::FaultyReading adaptive =
        [slot](da::NodeId reader, da::NodeId, double t) {
          const double own = (*slot)->clock(reader).read(t);
          return own + (reader % 2 == 0 ? 0.9 : -0.9) * kWindow;
        };
    da::clocksync::ClockEnsemble ensemble(std::move(clocks), faulty,
                                          adaptive);
    *slot = &ensemble;
    const double skew = da::clocksync::cnv_run(ensemble, 0.0, 1.0, 8,
                                               kWindow);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.5f", skew);
    table.row(f, 3 * f < 7 ? "yes" : "no", buf,
              skew < kWindow ? "yes" : "NO (diverging)");
  }
  table.print();
  std::puts("");
}

void witness_table() {
  std::puts("Witness clocks (Section 6.2): 4 processors, 2 faulty clocks:");
  da::Table table({"witness clocks", "total", "3f < total?", "final skew"});
  for (int w : {0, 1, 3, 5}) {
    da::clocksync::WitnessConfig config;
    config.processors = 4;
    config.faulty_clocks = 2;
    config.witness_clocks = w;
    const auto result = da::clocksync::run_witness_experiment(config, 8, 0.01);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.5f", result.final_skew);
    table.row(w, config.total_clocks(), result.sync_possible ? "yes" : "no",
              buf);
  }
  table.print();
  std::puts("");
}

void degradable_table() {
  const da::clocksync::DegradableSyncParams params{.m = 1, .u = 4};
  const int n = 7;
  std::printf("Degradable clock sync (Section 6.1 conjecture), n=%d, m=%d, "
              "u=%d, 20 seeds per row:\n",
              n, params.m, params.u);
  da::Table table({"f", "all ff synced", ">= m+1 synced", ">= m+1 detected",
                   "conjecture holds"});
  for (int f = 0; f <= params.u; ++f) {
    int all_synced = 0;
    int enough_synced = 0;
    int enough_detected = 0;
    int holds = 0;
    const int kSeeds = 20;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      da::Rng rng(da::mix64(seed, static_cast<std::uint64_t>(f)));
      std::vector<da::NodeId> faulty;
      for (const int x : rng.subset(n, f)) faulty.push_back(x);
      auto ensemble = make_ensemble(n, faulty, seed * 97);
      const auto result = da::clocksync::degradable_sync_round(
          ensemble, 10.0, params, [seed](da::NodeId sender) {
            return da::faults::random_noise(
                da::mix64(seed, static_cast<std::uint64_t>(sender)), -500000,
                500000, 0.25);
          });
      const int fault_free = n - f;
      all_synced +=
          static_cast<int>(result.synced.size()) == fault_free ? 1 : 0;
      enough_synced +=
          static_cast<int>(result.synced.size()) >= params.m + 1 ? 1 : 0;
      enough_detected +=
          static_cast<int>(result.detected.size()) >= params.m + 1 ? 1 : 0;
      holds += result.conjecture_holds ? 1 : 0;
    }
    const auto frac = [kSeeds](int x) {
      return std::to_string(x) + "/" + std::to_string(kSeeds);
    };
    table.row(f, frac(all_synced), frac(enough_synced), frac(enough_detected),
              frac(holds));
  }
  table.print();
  std::puts("");
}

void periodic_table() {
  std::puts("Periodic degradable resync (n=7, m=1, u=4, period 10s):");
  da::Table table({"round", "clean: drift before", "clean: skew after",
                   "f=3: synced", "f=3: detected", "f=3: conjecture"});
  // Clean drifting ensemble.
  da::Rng rng(7);
  std::vector<da::clocksync::HardwareClock> clean_clocks;
  for (int i = 0; i < 7; ++i) {
    clean_clocks.emplace_back((rng.uniform() * 2 - 1) * 1e-4,
                              (rng.uniform() * 2 - 1) * 1e-5);
  }
  da::clocksync::ClockEnsemble clean(std::move(clean_clocks), {}, nullptr);
  const da::clocksync::DegradableSyncParams params{.m = 1, .u = 4};
  const auto clean_run = da::clocksync::degradable_sync_run(
      clean, 0.0, 10.0, 6, params,
      [](da::NodeId) { return da::faults::honest(); });

  auto faulty_ensemble = make_ensemble(7, {1, 4, 6}, 5);
  const auto faulty_run = da::clocksync::degradable_sync_run(
      faulty_ensemble, 0.0, 10.0, 6, params, [](da::NodeId sender) {
        return da::faults::random_noise(
            da::mix64(99, static_cast<std::uint64_t>(sender)), -500000,
            500000, 0.25);
      });

  for (int r = 0; r < 6; ++r) {
    char before[32];
    std::snprintf(before, sizeof before, "%.6f",
                  clean_run.skew_before[static_cast<std::size_t>(r)]);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f",
                  clean_run.skew_after[static_cast<std::size_t>(r)]);
    const bool held =
        faulty_run.synced_counts[static_cast<std::size_t>(r)] >= 2 ||
        faulty_run.detected_counts[static_cast<std::size_t>(r)] >= 2;
    table.row(r, before, buf,
              faulty_run.synced_counts[static_cast<std::size_t>(r)],
              faulty_run.detected_counts[static_cast<std::size_t>(r)],
              held ? "holds" : "FAILS");
  }
  table.print();
  std::printf("conjecture held %d/6 rounds under persistent f=3 faults.\n\n",
              faulty_run.rounds_conjecture_held);
}

}  // namespace

int main(int argc, char** argv) {
  da::obs::BenchReporter reporter("bench_clocksync", argc, argv);
  std::puts("E7: clock synchronization (Section 6)\n");
  cnv_table();
  witness_table();
  degradable_table();
  periodic_table();
  std::puts("Reading: CNV collapses once a third of the clocks are faulty;");
  std::puts("witness clocks buy the margin back in hardware. The degradable");
  std::puts("sync round keeps the paper's conjectured disjunction — >= m+1");
  std::puts("synced or >= m+1 detecting — across the degraded fault range.");
  return reporter.finish();
}
