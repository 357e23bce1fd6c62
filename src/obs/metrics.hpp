#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/quantiles.hpp"

namespace da::obs {

/// Protocol cost accounting for the whole repository: a process-wide
/// registry of named counters, gauges and quantile sketches that the
/// runtimes, protocols, network models and the sweep engine write into,
/// and that benches export as JSON (see docs/OBSERVABILITY.md for the
/// metric name catalogue and the export schema).
///
/// Hot-path writes go to cheap *thread-local* sinks — a plain (non-atomic)
/// slot per metric per thread — and are folded into the shared registry
/// when a `MetricsScope` exits (counters merge with relaxed atomic adds,
/// sketches under one mutex). That makes instrumentation safe and
/// contention-free under the sweep engine's fork-join pool: each thread
/// accumulates locally and pays one merge per protocol execution.
///
/// Compile-time kill switch: building with -DDA_METRICS_DISABLED (CMake:
/// -DDA_METRICS=OFF) turns every Counter/Quantile/ScopedTimer
/// operation into an inline no-op so the cost of the instrumentation
/// itself can be measured (the registry stays linkable but stays empty).

/// Point-in-time copy of every registered metric. Quantile metrics carry
/// their full `QuantileSketch`, so a snapshot can answer any percentile
/// (the bench JSON export surfaces p50/p90/p99/p999).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, QuantileSketch> quantiles;
};

namespace detail {
void tls_counter_add(std::uint32_t id, std::uint64_t delta);
void tls_quantile_record(std::uint32_t id, double value);
}  // namespace detail

/// The process-wide metric store. Use `MetricsRegistry::global()`;
/// metric handles (`Counter`, `Quantile`) intern their name here once at
/// construction and carry only a dense integer id afterwards.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  /// Interns a metric name; returns its dense id (stable for the process
  /// lifetime, including across reset()).
  [[nodiscard]] std::uint32_t intern_counter(std::string_view name);
  [[nodiscard]] std::uint32_t intern_quantile(std::string_view name);

  /// Gauges are last-write-wins and written directly (no TLS staging):
  /// they are set rarely (per sweep / per bench), never per message.
  void set_gauge(std::string_view name, double value);

  /// Folds the calling thread's staged deltas into the shared store.
  /// Called automatically by ~MetricsScope.
  void flush_this_thread();

  /// Copies every metric (after flushing the calling thread). Other
  /// threads' unflushed deltas are not included — end their scopes first.
  [[nodiscard]] MetricsSnapshot snapshot();

  /// Single-counter read (after flushing the calling thread); 0 if the
  /// name was never interned. Convenience for tests and benches.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name);

  /// Zeroes every counter/sketch/gauge (names and ids survive). Only
  /// meaningful when no instrumented work is in flight on other threads.
  void reset();

 private:
  MetricsRegistry() = default;
};

/// A named monotonic counter. Construct once (function-local static at the
/// instrumentation site), then `add()` per event.
class Counter {
 public:
#ifndef DA_METRICS_DISABLED
  explicit Counter(std::string_view name)
      : id_(MetricsRegistry::global().intern_counter(name)) {}
  void add(std::uint64_t delta = 1) const { detail::tls_counter_add(id_, delta); }
#else
  explicit Counter(std::string_view) {}
  void add(std::uint64_t = 1) const {}
#endif

 private:
#ifndef DA_METRICS_DISABLED
  std::uint32_t id_;
#endif
};

/// A named quantile metric: double samples stream into a thread-local
/// `QuantileSketch` and fold into the shared one at `MetricsScope` exit.
/// Because sketch merging is exact (see obs/quantiles.hpp), the merged
/// sketch is identical for any worker count and flush order, so it is
/// safe to pin byte-for-byte in tests.
class Quantile {
 public:
#ifndef DA_METRICS_DISABLED
  explicit Quantile(std::string_view name)
      : id_(MetricsRegistry::global().intern_quantile(name)) {}
  void record(double value) const { detail::tls_quantile_record(id_, value); }
#else
  explicit Quantile(std::string_view) {}
  void record(double) const {}
#endif

 private:
#ifndef DA_METRICS_DISABLED
  std::uint32_t id_;
#endif
};

/// Flushes the calling thread's staged metric deltas when it dies.
/// Instrumented regions (a protocol execution, a worker task, a node
/// thread body) hold one so their writes become visible at scope exit.
class MetricsScope {
 public:
  MetricsScope() = default;
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;
#ifndef DA_METRICS_DISABLED
  ~MetricsScope() { MetricsRegistry::global().flush_this_thread(); }
#else
  ~MetricsScope() = default;
#endif
};

/// Records the elapsed wall time (milliseconds) into a quantile metric at
/// destruction. The referenced metric must outlive the timer.
class ScopedTimer {
 public:
#ifndef DA_METRICS_DISABLED
  explicit ScopedTimer(const Quantile& metric)
      : metric_(&metric), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    metric_->record(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
  }
#else
  explicit ScopedTimer(const Quantile&) {}
#endif
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
#ifndef DA_METRICS_DISABLED
  const Quantile* metric_;
  std::chrono::steady_clock::time_point start_;
#endif
};

}  // namespace da::obs
