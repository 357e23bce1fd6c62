// Experiment E3 — Figure 1 and conditions B.1/B.2 vs C.1-C.3 (Section 3).
//
// Figure 1(a): sensor + 3m channels + Byzantine agreement + majority voter.
// Figure 1(b): sensor + 2m+u channels + m/u-degradable agreement +
//              (m+u)-out-of-(2m+u) voter.
//
// For m = 1 (u = 2) we sweep the number of faulty channels and classify
// the external entity's vote: correct / default (safe) / INCORRECT
// (unsafe). The paper's claim has a sharp shape: the classical system
// emits incorrect values as soon as f > m, while the degradable system is
// correct-or-default all the way to u — and its fault-free channels
// diverge into at most two states, one of them safe (C.3).

#include <algorithm>
#include <cstdio>

#include "channels/channel_system.hpp"
#include "faults/adversaries.hpp"
#include "obs/bench_report.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using da::channels::ChannelSystem;
using da::channels::ChannelSystemConfig;
using da::channels::VoterOutcome;

struct Tally {
  int correct = 0;
  int dflt = 0;
  int incorrect = 0;
  int graceful = 0;
  int max_states = 0;
};

Tally sweep(const ChannelSystem& system, int f, std::uint64_t seed,
            int trials) {
  Tally tally;
  const int channels = system.config().channel_count();
  for (int trial = 0; trial < trials; ++trial) {
    da::Rng rng(da::mix64(seed, static_cast<std::uint64_t>(trial)));
    const da::Value sensor = da::Value::of(rng.range(1, 100));
    const da::Value lie = da::Value::of(sensor.raw() + 7);
    const std::vector<int> faulty = rng.subset(channels, f);

    // Colluding worst case: lie consistently during agreement AND hand the
    // matching computed value to the voter.
    auto adversary = trial % 2 == 0
                         ? da::faults::constant_liar(lie)
                         : da::faults::equivocator(sensor, lie);
    const auto frame = system.run_frame(
        sensor, faulty, /*sensor_faulty=*/false, *adversary,
        da::Value::of(2 * lie.raw() + 1));

    switch (frame.outcome) {
      case VoterOutcome::kCorrect: ++tally.correct; break;
      case VoterOutcome::kDefault: ++tally.dflt; break;
      case VoterOutcome::kIncorrect: ++tally.incorrect; break;
    }
    tally.graceful += frame.divergence_graceful ? 1 : 0;
    tally.max_states =
        std::max(tally.max_states, frame.distinct_fault_free_states);
  }
  return tally;
}

void report(const char* title, const ChannelSystem& system, int max_f,
            std::uint64_t seed) {
  std::printf("%s (channels = %d, voter = %zu-out-of-%d):\n", title,
              system.config().channel_count(),
              system.config().vote_threshold(),
              system.config().channel_count());
  da::Table table({"f", "correct", "default", "INCORRECT", "graceful_state",
                   "max_states"});
  constexpr int kTrials = 30;
  for (int f = 0; f <= max_f; ++f) {
    const Tally tally = sweep(system, f, seed + static_cast<std::uint64_t>(f),
                              kTrials);
    table.row(f, tally.correct, tally.dflt, tally.incorrect,
              std::to_string(tally.graceful) + "/" + std::to_string(kTrials),
              tally.max_states);
  }
  table.print();
  std::puts("");
}

}  // namespace

int main(int argc, char** argv) {
  da::obs::BenchReporter reporter("bench_fig1_channels", argc, argv);
  std::puts("E3: multiple-channel systems of Figure 1 (m = 1)\n");

  const ChannelSystem byzantine(
      {.kind = ChannelSystemConfig::Kind::kByzantineMajority, .m = 1});
  report("Figure 1(a): classical Byzantine-agreement system", byzantine, 3,
         100);

  const ChannelSystem degradable(
      {.kind = ChannelSystemConfig::Kind::kDegradable, .m = 1, .u = 2});
  report("Figure 1(b): degradable-agreement system", degradable, 3, 200);

  std::puts("Reading (the paper's B.1/C.1-C.3):");
  std::puts("  - both systems vote correctly while f <= m = 1;");
  std::puts("  - at f = 2 the classical system emits INCORRECT votes (unsafe),");
  std::puts("    the degradable system only correct-or-default (C.2) up to u = 2;");
  std::puts("  - fault-free channel states stay within {correct, safe-default}");
  std::puts("    for the degradable system (C.3), through f <= u.");
  return reporter.finish();
}
