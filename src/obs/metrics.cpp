#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace da::obs {

namespace {

struct TlsSink {
  std::vector<std::uint64_t> counters;
  std::vector<QuantileSketch> quantiles;
};

TlsSink& tls_sink() {
  thread_local TlsSink sink;
  return sink;
}

/// Shared store behind MetricsRegistry. Counter cells are atomics in a
/// deque (stable addresses as new metrics are interned); sketch cells
/// and the name tables live under one mutex — they are touched at intern
/// time and at flush time only, never per event.
struct Store {
  std::mutex mu;
  std::unordered_map<std::string, std::uint32_t> counter_ids;
  std::vector<std::string> counter_names;
  std::deque<std::atomic<std::uint64_t>> counter_cells;
  std::unordered_map<std::string, std::uint32_t> quantile_ids;
  std::vector<std::string> quantile_names;
  std::vector<QuantileSketch> quantile_cells;
  std::map<std::string, double> gauges;
};

Store& store() {
  static Store* s = new Store;  // leaked: usable during static destruction
  return *s;
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::uint32_t MetricsRegistry::intern_counter(std::string_view name) {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.counter_ids.find(std::string(name));
  if (it != s.counter_ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(s.counter_names.size());
  s.counter_names.emplace_back(name);
  s.counter_cells.emplace_back(0);
  s.counter_ids.emplace(std::string(name), id);
  return id;
}

std::uint32_t MetricsRegistry::intern_quantile(std::string_view name) {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.quantile_ids.find(std::string(name));
  if (it != s.quantile_ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(s.quantile_names.size());
  s.quantile_names.emplace_back(name);
  s.quantile_cells.emplace_back();
  s.quantile_ids.emplace(std::string(name), id);
  return id;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.gauges[std::string(name)] = value;
}

void MetricsRegistry::flush_this_thread() {
  Store& s = store();
  TlsSink& sink = tls_sink();
  for (std::size_t i = 0; i < sink.counters.size(); ++i) {
    if (sink.counters[i] == 0) continue;
    s.counter_cells[i].fetch_add(sink.counters[i],
                                 std::memory_order_relaxed);
    sink.counters[i] = 0;
  }
  if (std::all_of(sink.quantiles.begin(), sink.quantiles.end(),
                  [](const QuantileSketch& q) { return q.empty(); })) {
    return;
  }
  const std::lock_guard<std::mutex> lock(s.mu);
  // Sketch merging is exact (integer buckets, bit-exact min/max), so the
  // shared cell's canonical state is independent of which thread flushes
  // first — the property the cross-jobs byte-identity tests rely on.
  for (std::size_t i = 0; i < sink.quantiles.size(); ++i) {
    QuantileSketch& local = sink.quantiles[i];
    if (local.empty()) continue;
    s.quantile_cells[i].merge(local);
    local.clear();
  }
}

MetricsSnapshot MetricsRegistry::snapshot() {
  MetricsSnapshot out;
  flush_this_thread();
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  for (std::size_t i = 0; i < s.counter_names.size(); ++i) {
    out.counters[s.counter_names[i]] =
        s.counter_cells[i].load(std::memory_order_relaxed);
  }
  out.gauges = s.gauges;
  for (std::size_t i = 0; i < s.quantile_names.size(); ++i) {
    out.quantiles[s.quantile_names[i]] = s.quantile_cells[i];
  }
  return out;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) {
  flush_this_thread();
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.counter_ids.find(std::string(name));
  if (it == s.counter_ids.end()) return 0;
  return s.counter_cells[it->second].load(std::memory_order_relaxed);
}

void MetricsRegistry::reset() {
  flush_this_thread();
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  for (auto& cell : s.counter_cells) {
    cell.store(0, std::memory_order_relaxed);
  }
  for (QuantileSketch& cell : s.quantile_cells) cell.clear();
  s.gauges.clear();
}

namespace detail {

void tls_counter_add(std::uint32_t id, std::uint64_t delta) {
  TlsSink& sink = tls_sink();
  if (sink.counters.size() <= id) sink.counters.resize(id + 1, 0);
  sink.counters[id] += delta;
}

void tls_quantile_record(std::uint32_t id, double value) {
  TlsSink& sink = tls_sink();
  if (sink.quantiles.size() <= id) sink.quantiles.resize(id + 1);
  sink.quantiles[id].record(value);
}

}  // namespace detail

}  // namespace da::obs
