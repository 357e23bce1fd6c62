#include "obs/trace_export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <tuple>
#include <utility>

#include "sim/message.hpp"

namespace da::obs {

namespace {

TraceEvent event_from_message(const sim::Message& msg) {
  TraceEvent ev;
  ev.to = msg.to;
  ev.from = msg.from;
  ev.round = msg.round;
  ev.path.assign(msg.path.begin(), msg.path.end());
  ev.value_default = msg.value.is_default();
  ev.value = msg.value.raw();
  ev.aux = msg.aux;
  ev.wire_bytes = sim::wire_size_bytes(msg);
  return ev;
}

auto event_key(const TraceEvent& ev) {
  // value/aux tiebreak keeps the order total even when an adversary or a
  // duplicating network produces several events in one (to, round, from,
  // path) slot — without it, same-slot events would keep their (runtime-
  // dependent) insertion order and byte-identity across runtimes would be
  // a coin flip.
  return std::tie(ev.to, ev.round, ev.from, ev.path, ev.value_default,
                  ev.value, ev.aux);
}

}  // namespace

Json TraceEvent::to_json() const {
  Json path_json = Json::array();
  for (const da::NodeId id : path) path_json.push_back(id);
  Json j = Json::object();
  j.set("to", to)
      .set("from", from)
      .set("round", round)
      .set("path", std::move(path_json))
      .set("value", value_default ? Json(nullptr) : Json(value))
      .set("aux", aux)
      .set("wire_bytes", wire_bytes);
  return j;
}

Parsed<TraceEvent> TraceEvent::from_json(const Json& j) {
  const auto bad = [](const char* why) {
    return ParseError{ParseKind::kBadValue, 0, 0, why};
  };
  TraceEvent ev;
  const Json* path = j.find("path");
  const Json* value = j.find("value");
  if (!int_member(j, "to", ev.to) || !int_member(j, "from", ev.from) ||
      !int_member(j, "round", ev.round) || !int_member(j, "aux", ev.aux) ||
      !int_member(j, "wire_bytes", ev.wire_bytes) || path == nullptr ||
      !path->is_array() || value == nullptr) {
    return bad("missing, mistyped or out-of-range field");
  }
  for (const Json& hop : path->as_array()) {
    if (!hop.is_integer() || !std::in_range<da::NodeId>(hop.as_int())) {
      return bad("path hop is not a node id");
    }
    ev.path.push_back(static_cast<da::NodeId>(hop.as_int()));
  }
  ev.value_default = value->is_null();
  if (!ev.value_default && !int_member(j, "value", ev.value)) {
    return bad("value is neither null nor an integer");
  }
  return ev;
}

std::vector<TraceEvent> trace_events(const sim::Trace& trace) {
  std::vector<TraceEvent> events;
  events.reserve(trace.total_messages());
  for (const da::NodeId node : trace.nodes()) {
    for (const sim::Message& msg : trace.received(node)) {
      events.push_back(event_from_message(msg));
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return event_key(a) < event_key(b);
            });
  return events;
}

std::string trace_to_jsonl(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& ev : events) {
    out += ev.to_json().dump();
    out += '\n';
  }
  return out;
}

std::string trace_to_jsonl(const sim::Trace& trace) {
  return trace_to_jsonl(trace_events(trace));
}

bool write_trace_jsonl(const sim::Trace& trace, const std::string& file_path) {
  std::ofstream out(file_path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << trace_to_jsonl(trace);
  return static_cast<bool>(out);
}

Parsed<std::vector<TraceEvent>> read_trace_jsonl(std::string_view text) {
  std::vector<TraceEvent> events;
  TextCursor in(text);
  while (in.next_line()) {
    Parsed<Json> j = Json::parse(in.line());
    if (!j) return in.on_line(j.error());
    Parsed<TraceEvent> ev = TraceEvent::from_json(*j);
    if (!ev) return in.on_line(ev.error());
    events.push_back(std::move(*ev));
  }
  const std::string canonical = trace_to_jsonl(events);
  if (canonical != text) return not_canonical(text, canonical);
  return events;
}

TraceDiff diff_traces(const std::vector<TraceEvent>& a,
                      const std::vector<TraceEvent>& b) {
  std::map<da::NodeId, std::pair<std::vector<const TraceEvent*>,
                                 std::vector<const TraceEvent*>>>
      by_node;
  for (const TraceEvent& ev : a) by_node[ev.to].first.push_back(&ev);
  for (const TraceEvent& ev : b) by_node[ev.to].second.push_back(&ev);

  const auto canonical = [](std::vector<const TraceEvent*>& events) {
    std::sort(events.begin(), events.end(),
              [](const TraceEvent* x, const TraceEvent* y) {
                return event_key(*x) < event_key(*y);
              });
  };

  TraceDiff diff;
  for (auto& [node, sides] : by_node) {
    canonical(sides.first);
    canonical(sides.second);
    NodeDiff nd;
    nd.node = node;
    nd.events_a = sides.first.size();
    nd.events_b = sides.second.size();
    const std::size_t common = std::min(nd.events_a, nd.events_b);
    std::size_t i = 0;
    while (i < common && *sides.first[i] == *sides.second[i]) ++i;
    nd.first_divergence = i;
    nd.identical = i == nd.events_a && i == nd.events_b;
    diff.nodes.push_back(nd);
  }
  return diff;
}

}  // namespace da::obs
