#include "clocksync/degradable_sync.hpp"

#include <algorithm>
#include <cmath>

#include "core/degradable_ic.hpp"
#include "util/contracts.hpp"

namespace da::clocksync {

namespace {

Value quantize(double reading, double quantum) {
  return Value::of(static_cast<std::int64_t>(std::llround(reading / quantum)));
}

double dequantize(Value v, double quantum) {
  return static_cast<double>(v.raw()) * quantum;
}

}  // namespace

DegradableSyncResult degradable_sync_round(
    ClockEnsemble& ensemble, double real_time,
    const DegradableSyncParams& params,
    const protocols::ic::AdversaryFactory& adversaries) {
  const int n = ensemble.n();
  const Config config{.n = n, .m = params.m, .u = params.u};
  DA_EXPECTS(config.valid());

  std::vector<NodeId> faulty;
  for (NodeId id = 0; id < n; ++id) {
    if (ensemble.is_faulty(id)) faulty.push_back(id);
  }

  // One degradable-IC round over quantized clock readings: node s's input
  // is its own clock's claim to itself (the agreement adversary distorts
  // what a faulty node tells others).
  std::vector<Value> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (NodeId s = 0; s < n; ++s) {
    Value reading = quantize(ensemble.read(s, s, real_time), params.quantum);
    if (reading.is_default()) reading = Value::of(1);
    inputs.push_back(reading);
  }
  const protocols::ic::IcResult ic =
      core::run_degradable_ic(config, inputs, faulty, adversaries);
  const auto& vectors = ic.vectors;

  DegradableSyncResult result;

  // Detection + correction per fault-free node.
  std::vector<std::pair<NodeId, double>> adjusted;  // candidates for sync
  for (NodeId p = 0; p < n; ++p) {
    if (ensemble.is_faulty(p)) continue;
    const auto& vec = vectors.at(p);
    const int defaults = static_cast<int>(
        std::count_if(vec.begin(), vec.end(),
                      [](const Value& v) { return v.is_default(); }));
    if (defaults > params.m) {
      // Sound detection: f <= m can produce at most m default entries.
      result.detected.push_back(p);
      continue;
    }
    // Fault-tolerant midpoint: discard readings outside the egocentric
    // window (clipping wild lies, as CNV does), then drop the m lowest and
    // m highest of the remainder.
    const double own = ensemble.clock(p).read(real_time);
    std::vector<double> readings;
    for (const Value& v : vec) {
      if (v.is_default()) continue;
      const double r = dequantize(v, params.quantum);
      if (std::abs(r - own) <= params.window) readings.push_back(r);
    }
    std::sort(readings.begin(), readings.end());
    const int k = static_cast<int>(readings.size());
    if (k <= 2 * params.m) {
      // Too few plausible readings to correct safely; treat as detection
      // (only reachable when more than m senders fed implausible values).
      result.detected.push_back(p);
      continue;
    }
    const double target =
        (readings[static_cast<std::size_t>(params.m)] +
         readings[static_cast<std::size_t>(k - 1 - params.m)]) /
        2.0;
    ensemble.clock(p).adjust(target - own);
    adjusted.emplace_back(p, target);
  }

  // Largest epsilon-cluster among the adjusted fault-free clocks.
  std::sort(adjusted.begin(), adjusted.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::size_t best_lo = 0;
  std::size_t best_len = adjusted.empty() ? 0 : 1;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < adjusted.size(); ++hi) {
    while (adjusted[hi].second - adjusted[lo].second > params.epsilon) ++lo;
    if (hi - lo + 1 > best_len) {
      best_len = hi - lo + 1;
      best_lo = lo;
    }
  }
  for (std::size_t i = best_lo; i < best_lo + best_len; ++i) {
    result.synced.push_back(adjusted[i].first);
  }
  std::sort(result.synced.begin(), result.synced.end());
  if (best_len >= 1) {
    result.synced_skew = adjusted[best_lo + best_len - 1].second -
                         adjusted[best_lo].second;
  }

  result.conjecture_holds =
      static_cast<int>(result.synced.size()) >= params.m + 1 ||
      static_cast<int>(result.detected.size()) >= params.m + 1;
  return result;
}

double DegradableSyncRunResult::max_skew_after() const {
  double worst = 0.0;
  for (double s : skew_after) worst = std::max(worst, s);
  return worst;
}

DegradableSyncRunResult degradable_sync_run(
    ClockEnsemble& ensemble, double start, double period, int rounds,
    const DegradableSyncParams& params,
    const protocols::ic::AdversaryFactory& adversaries) {
  DA_EXPECTS(rounds >= 1 && period > 0.0);
  DegradableSyncRunResult run;
  for (int r = 0; r < rounds; ++r) {
    const double now = start + r * period;
    run.skew_before.push_back(ensemble.skew(now));
    const DegradableSyncResult round =
        degradable_sync_round(ensemble, now, params, adversaries);
    run.skew_after.push_back(ensemble.skew(now, round.synced));
    run.synced_counts.push_back(static_cast<int>(round.synced.size()));
    run.detected_counts.push_back(static_cast<int>(round.detected.size()));
    run.rounds_conjecture_held += round.conjecture_holds ? 1 : 0;
  }
  return run;
}

}  // namespace da::clocksync
