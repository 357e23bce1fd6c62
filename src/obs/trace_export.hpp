#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "sim/trace.hpp"
#include "util/ids.hpp"
#include "util/parse.hpp"

namespace da::obs {

/// Serializes `trace` as JSONL: one compact JSON object per delivered
/// message, in the trace's canonical order, so two exports of
/// indistinguishable executions are byte-identical and `diff` output is
/// stable across runs. Fields: to, from, round, path, value (null for
/// V_d), aux, and wire_bytes (`sim::wire_size_bytes` of the message).
[[nodiscard]] std::string trace_to_jsonl(const sim::Trace& trace);

/// Writes the JSONL export to `file_path`. Returns false on I/O failure.
bool write_trace_jsonl(const sim::Trace& trace, const std::string& file_path);

/// Parses a JSONL trace export, accepting exactly the writer's bytes (no
/// blank lines, a final newline, canonical order); the error names the
/// first rejected line. A hop outside `Path::fits`, more than
/// `Path::kMaxLen` hops or a field out of its type's range is kBadValue;
/// a `wire_bytes` other than the decoded message's size is kInconsistent.
[[nodiscard]] Parsed<sim::Trace> read_trace_jsonl(std::string_view text);

/// Per-node comparison of two traces.
struct NodeDiff {
  da::NodeId node = da::kNoNode;
  std::size_t events_a = 0;
  std::size_t events_b = 0;
  bool identical = false;
  /// Index of the first differing message in the node's canonical
  /// sequence (== min(events_a, events_b) when one side is a prefix of
  /// the other).
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

/// Compares two traces node by node, in canonical order. This is the
/// machine-checkable form of the paper's indistinguishability argument: a
/// node whose entry is `identical` cannot tell the two executions apart
/// (its entry agrees with `sim::Trace::indistinguishable_for`).
[[nodiscard]] TraceDiff diff_traces(const sim::Trace& a, const sim::Trace& b);

}  // namespace da::obs
