#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "sim/trace.hpp"

namespace da::obs {

/// One exported trace event: a message as one JSONL record. The export is
/// canonical — events sorted by (to, round, from, path) — so two exports
/// of indistinguishable executions are byte-identical, and `diff` output
/// is stable across runs.
struct TraceEvent {
  da::NodeId to = da::kNoNode;
  da::NodeId from = da::kNoNode;
  int round = 0;
  std::vector<da::NodeId> path;
  bool value_default = true;
  std::int64_t value = 0;
  std::int64_t aux = 0;
  std::size_t wire_bytes = 0;

  [[nodiscard]] Json to_json() const;
  /// Decodes one record; a field missing, mistyped or out of its C++
  /// type's range (a negative `wire_bytes`) is a kBadValue error.
  [[nodiscard]] static Parsed<TraceEvent> from_json(const Json& j);

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Flattens a sim::Trace into canonical event order.
[[nodiscard]] std::vector<TraceEvent> trace_events(const sim::Trace& trace);

/// Serializes `events` as JSONL: one compact JSON object per line.
[[nodiscard]] std::string trace_to_jsonl(const std::vector<TraceEvent>& events);

/// Convenience: export a sim::Trace directly.
[[nodiscard]] std::string trace_to_jsonl(const sim::Trace& trace);

/// Writes the JSONL export to `file_path`. Returns false on I/O failure.
bool write_trace_jsonl(const sim::Trace& trace, const std::string& file_path);

/// Parses a JSONL trace export, accepting exactly the writer's bytes
/// (no blank lines, a final newline); the error names the first line.
[[nodiscard]] Parsed<std::vector<TraceEvent>> read_trace_jsonl(
    std::string_view text);

/// Per-node comparison of two trace exports.
struct NodeDiff {
  da::NodeId node = da::kNoNode;
  std::size_t events_a = 0;
  std::size_t events_b = 0;
  bool identical = false;
  /// Index of the first differing event in the node's canonical sequence
  /// (== min(events_a, events_b) when one side is a prefix of the other).
  std::size_t first_divergence = 0;
};

struct TraceDiff {
  std::vector<NodeDiff> nodes;  // every node present in either trace
  [[nodiscard]] bool identical() const {
    for (const NodeDiff& n : nodes) {
      if (!n.identical) return false;
    }
    return true;
  }
};

/// Compares two event lists node by node (canonical order). This is the
/// machine-checkable form of the paper's indistinguishability argument: a
/// node whose entry is `identical` cannot tell the two executions apart.
[[nodiscard]] TraceDiff diff_traces(const std::vector<TraceEvent>& a,
                                    const std::vector<TraceEvent>& b);

}  // namespace da::obs
