#include "obs/trace_export.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <utility>

#include "obs/json.hpp"
#include "sim/message.hpp"
#include "util/path.hpp"

namespace da::obs {

namespace {

void append_int(std::string& out, std::int64_t value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

/// One export line: the compact JSON of the record {to, from, round,
/// path, value, aux, wire_bytes}, as `Json::dump` spells it.
void append_record(std::string& out, const sim::Message& msg) {
  out += "{\"to\":";
  append_int(out, msg.to);
  out += ",\"from\":";
  append_int(out, msg.from);
  out += ",\"round\":";
  append_int(out, msg.round);
  out += ",\"path\":[";
  for (std::size_t i = 0; i < msg.path.size(); ++i) {
    if (i != 0) out += ',';
    append_int(out, msg.path[i]);
  }
  out += "],\"value\":";
  if (msg.value.is_default()) {
    out += "null";
  } else {
    append_int(out, msg.value.raw());
  }
  out += ",\"aux\":";
  append_int(out, msg.aux);
  out += ",\"wire_bytes\":";
  append_int(out, static_cast<std::int64_t>(sim::wire_size_bytes(msg)));
  out += "}\n";
}

/// Decodes one record. A field missing, mistyped or out of its type's
/// range is kBadValue; a `wire_bytes` that the decoded message does not
/// have is kInconsistent.
Parsed<sim::Message> message_from_json(const Json& j) {
  const auto bad = [](ParseKind kind, const char* why) {
    return ParseError{kind, 0, 0, why};
  };
  sim::Message msg;
  std::size_t wire_bytes = 0;
  const Json* path = j.find("path");
  const Json* value = j.find("value");
  if (!int_member(j, "to", msg.to) || !int_member(j, "from", msg.from) ||
      !int_member(j, "round", msg.round) || !int_member(j, "aux", msg.aux) ||
      !int_member(j, "wire_bytes", wire_bytes) || path == nullptr ||
      !path->is_array() || value == nullptr) {
    return bad(ParseKind::kBadValue, "missing, mistyped or out-of-range field");
  }
  if (path->as_array().size() > Path::kMaxLen) {
    return bad(ParseKind::kBadValue, "path has more than Path::kMaxLen hops");
  }
  for (const Json& hop : path->as_array()) {
    if (!hop.is_integer() || !std::in_range<NodeId>(hop.as_int()) ||
        !Path::fits(static_cast<NodeId>(hop.as_int()))) {
      return bad(ParseKind::kBadValue, "path hop is not a storable node id");
    }
    msg.path.push_back(static_cast<NodeId>(hop.as_int()));
  }
  if (!value->is_null()) {
    std::int64_t raw = 0;
    if (!int_member(j, "value", raw)) {
      return bad(ParseKind::kBadValue, "value is neither null nor an integer");
    }
    msg.value = Value::of(raw);
  }
  if (wire_bytes != sim::wire_size_bytes(msg)) {
    return bad(ParseKind::kInconsistent,
               "wire_bytes is not the message's wire size");
  }
  return msg;
}

}  // namespace

std::string trace_to_jsonl(const sim::Trace& trace) {
  std::string out;
  for (const sim::Message& msg : trace.canonical()) append_record(out, msg);
  return out;
}

bool write_trace_jsonl(const sim::Trace& trace, const std::string& file_path) {
  std::ofstream out(file_path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << trace_to_jsonl(trace);
  return static_cast<bool>(out);
}

Parsed<sim::Trace> read_trace_jsonl(std::string_view text) {
  sim::Trace trace;
  TextCursor in(text);
  while (in.next_line()) {
    Parsed<Json> j = Json::parse(in.line());
    if (!j) return in.on_line(j.error());
    Parsed<sim::Message> msg = message_from_json(*j);
    if (!msg) return in.on_line(msg.error());
    trace.record(*msg);
  }
  const std::string canonical = trace_to_jsonl(trace);
  if (canonical != text) return not_canonical(text, canonical);
  return trace;
}

TraceDiff diff_traces(const sim::Trace& a, const sim::Trace& b) {
  const std::vector<NodeId> nodes_a = a.nodes();
  const std::vector<NodeId> nodes_b = b.nodes();
  std::vector<NodeId> nodes;
  std::set_union(nodes_a.begin(), nodes_a.end(), nodes_b.begin(),
                 nodes_b.end(), std::back_inserter(nodes));
  TraceDiff diff;
  for (const NodeId node : nodes) {
    const std::vector<sim::Message> ra = a.received(node);
    const std::vector<sim::Message> rb = b.received(node);
    const auto [ia, ib] =
        std::mismatch(ra.begin(), ra.end(), rb.begin(), rb.end());
    NodeDiff nd;
    nd.node = node;
    nd.events_a = ra.size();
    nd.events_b = rb.size();
    nd.first_divergence = static_cast<std::size_t>(ia - ra.begin());
    nd.identical = ia == ra.end() && ib == rb.end();
    diff.nodes.push_back(nd);
  }
  return diff;
}

}  // namespace da::obs
