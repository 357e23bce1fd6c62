#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "clocksync/hardware_clock.hpp"
#include "sim/process.hpp"
#include "sim/runner.hpp"

namespace da::event {

/// Timing model of the event-driven runtime.
///
/// The synchronous-round abstraction the paper's proofs assume is
/// implemented the way a real system would (Section 6): each node owns a
/// hardware clock; it transmits its round-r messages when its *local*
/// clock reads r * round_period, and declares a round-r message absent if
/// it has not arrived by local time r * round_period + timeout. With
/// synchronized clocks and timeout >= max latency + skew no fault-free
/// message is ever missed; with unsynchronized clocks the "false timeout"
/// of Section 6.1 emerges mechanistically rather than by an injected drop.
struct TimingModel {
  /// Local-clock spacing between round boundaries.
  double round_period = 1.0;
  /// How long past the boundary a node keeps its round inbox open.
  /// Must be <= round_period (a node closes round r before sending r+1).
  double timeout = 0.5;
  /// Per-message link latency, uniform in [min_latency, max_latency],
  /// derived deterministically from the message identity.
  double min_latency = 0.01;
  double max_latency = 0.10;
  std::uint64_t seed = 1;
};

/// RunResult plus the timing facts of the execution.
struct EventRunResult {
  sim::RunResult base;
  /// Messages that arrived after the receiver's deadline (observed by the
  /// receiver as absence — V_d).
  std::size_t false_timeouts = 0;
  /// Real time at which the last node decided.
  double completion_time = 0.0;
};

/// Discrete-event executor for the same `sim::Process` protocol objects.
///
/// Three event types drive the run: a node's round-r *send* (at local time
/// r*P), a message *arrival* (send time + link latency), and a node's
/// round-r *deadline* (local r*P + timeout), at which the node consumes
/// its round inbox and hands the runner its round r+1 messages. Events are
/// totally ordered by (real time, sequence number), so runs are exactly
/// reproducible.
///
/// `clocks[i]` is node i's hardware clock; pass all-zero clocks for a
/// perfectly synchronous execution (then the results coincide with
/// `sim::RoundEngine` whenever max_latency <= timeout).
class EventRunner {
 public:
  EventRunner(std::vector<std::unique_ptr<sim::Process>> processes,
              sim::RunOptions options, TimingModel timing,
              std::vector<clocksync::HardwareClock> clocks);

  [[nodiscard]] EventRunResult run();

 private:
  std::vector<std::unique_ptr<sim::Process>> processes_;
  sim::RunOptions options_;
  TimingModel timing_;
  std::vector<clocksync::HardwareClock> clocks_;
};

/// Convenience: n perfectly synchronized drift-free clocks.
[[nodiscard]] std::vector<clocksync::HardwareClock> perfect_clocks(int n);

/// n clocks with offsets uniform in +-offset_spread and drifts uniform in
/// +-drift, seeded.
[[nodiscard]] std::vector<clocksync::HardwareClock> skewed_clocks(
    int n, double offset_spread, double drift, std::uint64_t seed);

}  // namespace da::event
