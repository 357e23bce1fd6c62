// trace_inspect: inspect, diff, and explain JSONL trace exports.
//
//   trace_inspect dump <trace.jsonl> [--node N]
//   trace_inspect diff <a.jsonl> <b.jsonl> [--node N]
//   trace_inspect fig2 [--n N] [--out DIR]
//   trace_inspect schema
//
// `dump` prints a per-node summary (and optionally one node's canonical
// transcript). `diff` is the machine-checkable form of the paper's
// indistinguishability argument: for each node it reports whether the two
// executions delivered byte-identical transcripts, and where they first
// diverge otherwise. `fig2` generates the three Theorem 2 scenarios,
// writes their exports next to each other, and runs both diffs — the
// pivotal fault-free node must come out IDENTICAL in each pair. `schema`
// prints one annotated event record.
//
//   $ trace_inspect fig2 --out /tmp/fig2
//   $ trace_inspect diff /tmp/fig2/scenario_a.jsonl /tmp/fig2/scenario_b.jsonl

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/agreement.hpp"
#include "faults/figure2.hpp"
#include "obs/trace_export.hpp"
#include "sim/trace.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kUsage =
    "usage: trace_inspect dump <trace.jsonl> [--node N]\n"
    "       trace_inspect diff <a.jsonl> <b.jsonl> [--node N]\n"
    "       trace_inspect fig2 [--n N] [--out DIR]\n"
    "       trace_inspect schema";

std::optional<std::vector<da::obs::TraceEvent>> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_inspect: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto events = da::obs::read_trace_jsonl(text.str());
  if (!events.has_value()) {
    std::fprintf(stderr, "trace_inspect: %s: %s\n", path.c_str(),
                 events.error().to_string().c_str());
    return std::nullopt;
  }
  return std::move(*events);
}

std::string path_to_string(const std::vector<da::NodeId>& path) {
  std::string out;
  for (da::NodeId id : path) {
    out += (out.empty() ? "" : ".") + std::to_string(id);
  }
  return out.empty() ? "-" : out;
}

void print_events(const std::vector<da::obs::TraceEvent>& events) {
  da::Table table({"to", "round", "from", "path", "value", "aux", "bytes"});
  for (const auto& e : events) {
    table.row(e.to, e.round, e.from, path_to_string(e.path),
              e.value_default ? std::string("V_d") : std::to_string(e.value),
              e.aux, static_cast<std::int64_t>(e.wire_bytes));
  }
  table.print();
}

int cmd_dump(const std::string& path, da::NodeId node) {
  const auto events = load(path);
  if (!events.has_value()) return 1;

  if (node != da::kNoNode) {
    std::vector<da::obs::TraceEvent> selected;
    for (const auto& e : *events) {
      if (e.to == node) selected.push_back(e);
    }
    std::printf("%s: node %d, %zu events (canonical order)\n", path.c_str(),
                node, selected.size());
    print_events(selected);
    return 0;
  }

  std::size_t bytes = 0;
  for (const auto& e : *events) bytes += e.wire_bytes;
  std::printf("%s: %zu events, %zu wire bytes\n", path.c_str(), events->size(),
              bytes);
  da::Table table({"node", "events", "rounds", "wire_bytes"});
  da::NodeId current = da::kNoNode;
  std::size_t count = 0, node_bytes = 0;
  int max_round = 0;
  const auto flush = [&] {
    if (count > 0) {
      table.row(current, static_cast<std::int64_t>(count), max_round + 1,
                static_cast<std::int64_t>(node_bytes));
    }
    count = node_bytes = 0;
    max_round = 0;
  };
  for (const auto& e : *events) {  // events arrive sorted by node
    if (e.to != current) {
      flush();
      current = e.to;
    }
    ++count;
    node_bytes += e.wire_bytes;
    if (e.round > max_round) max_round = e.round;
  }
  flush();
  table.print();
  return 0;
}

/// Prints the per-node verdict table; returns the diff for the caller to
/// inspect (exit status, pivot checks).
da::obs::TraceDiff print_diff(const std::vector<da::obs::TraceEvent>& a,
                              const std::vector<da::obs::TraceEvent>& b) {
  const auto diff = da::obs::diff_traces(a, b);
  da::Table table(
      {"node", "events_a", "events_b", "transcript", "first_divergence"});
  for (const auto& n : diff.nodes) {
    table.row(n.node, static_cast<std::int64_t>(n.events_a),
              static_cast<std::int64_t>(n.events_b),
              n.identical ? "IDENTICAL" : "differs",
              n.identical ? std::string("-")
                          : std::to_string(n.first_divergence));
  }
  table.print();
  return diff;
}

int cmd_diff(const std::string& path_a, const std::string& path_b,
             da::NodeId node) {
  const auto a = load(path_a);
  const auto b = load(path_b);
  if (!a.has_value() || !b.has_value()) return 1;

  std::printf("diff %s %s\n", path_a.c_str(), path_b.c_str());
  const auto diff = print_diff(*a, *b);

  if (node != da::kNoNode) {
    for (const auto& n : diff.nodes) {
      if (n.node != node) continue;
      std::printf(
          "\nnode %d: %s — a node with an identical transcript cannot\n"
          "distinguish the two executions, so it must decide identically\n"
          "in both (the paper's indistinguishability argument).\n",
          node, n.identical ? "IDENTICAL" : "DIFFERS");
      return n.identical ? 0 : 1;
    }
    std::fprintf(stderr, "trace_inspect: node %d not present in either trace\n",
                 node);
    return 1;
  }
  return diff.identical() ? 0 : 1;
}

da::sim::Trace run_scenario(const da::faults::figure2::Scenario& scenario) {
  da::sim::Trace trace;
  const da::DegradableAgreement protocol(scenario.spec.config);
  da::RunExtras extras;
  extras.trace = &trace;
  (void)protocol.run(scenario.spec, scenario.adversary.get(), extras);
  return trace;
}

int cmd_fig2(int n, const std::string& out_dir) {
  std::error_code dir_error;
  std::filesystem::create_directories(out_dir, dir_error);
  const auto sa = da::faults::figure2::scenario_a(n);
  const auto sb = da::faults::figure2::scenario_b(n);
  const auto sc = da::faults::figure2::scenario_c(n);
  const da::sim::Trace ta = run_scenario(sa);
  const da::sim::Trace tb = run_scenario(sb);
  const da::sim::Trace tc = run_scenario(sc);

  const std::string pa = out_dir + "/scenario_a.jsonl";
  const std::string pb = out_dir + "/scenario_b.jsonl";
  const std::string pc = out_dir + "/scenario_c.jsonl";
  for (const auto& [trace, path] :
       {std::pair<const da::sim::Trace&, const std::string&>{ta, pa},
        {tb, pb},
        {tc, pc}}) {
    if (!da::obs::write_trace_jsonl(trace, path)) {
      std::fprintf(stderr, "trace_inspect: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }

  const auto ea = da::obs::trace_events(ta);
  const auto eb = da::obs::trace_events(tb);
  const auto ec = da::obs::trace_events(tc);

  bool ok = true;
  const auto check_pair = [&](const char* label, const char* pair_files,
                              const std::vector<da::obs::TraceEvent>& x,
                              const std::vector<da::obs::TraceEvent>& y,
                              da::NodeId pivot) {
    std::printf("\n%s  (%s)\n", label, pair_files);
    const auto diff = print_diff(x, y);
    bool pivot_identical = false;
    for (const auto& node : diff.nodes) {
      if (node.node == pivot) pivot_identical = node.identical;
    }
    std::printf("pivot node %d: %s\n", pivot,
                pivot_identical
                    ? "IDENTICAL — it cannot tell the scenarios apart, so "
                      "its decision is forced"
                    : "DIFFERS (unexpected: the lower-bound argument needs "
                      "an identical view)");
    ok = ok && pivot_identical;
  };
  check_pair("scenario (a) vs (b), pivot B", "scenario_a.jsonl vs _b.jsonl",
             ea, eb, sb.pivot_node);
  check_pair("scenario (b) vs (c), pivot A", "scenario_b.jsonl vs _c.jsonl",
             eb, ec, sc.pivot_node);

  std::printf(
      "\n%s\n",
      ok ? "Both indistinguishability pairs hold: with N = 2m+u the chain "
           "(a)->(b)->(c) forces node A into a D.3 violation (Theorem 2)."
         : "??? an indistinguishability pair failed; the export or the "
           "scenarios are broken.");
  return ok ? 0 : 1;
}

int cmd_schema() {
  da::obs::TraceEvent event;
  event.to = 2;
  event.from = 3;
  event.round = 1;
  event.path = {0, 3};
  event.value_default = false;
  event.value = 101;
  event.wire_bytes = 17;
  std::printf("%s\n", event.to_json().dump(2).c_str());
  std::puts(
      "\nfields:\n"
      "  to            receiving node (transcripts are grouped by `to`)\n"
      "  from          immediate sender\n"
      "  round         protocol round the message was delivered in\n"
      "  path          EIG relay path: nodes the value passed through\n"
      "  value         payload; `null` encodes the default value V_d\n"
      "  aux           protocol-specific tag (omitted when 0)\n"
      "  wire_bytes    serialized size under sim::wire_size_bytes\n"
      "\norder: events are canonical — sorted by (to, round, from, path) —\n"
      "so exports of indistinguishable executions are byte-identical.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  da::NodeId node = da::kNoNode;
  int n = 4;
  std::string out_dir = ".";
  da::ArgReader reader("trace_inspect", kUsage);
  // Node ids fit EigLayout's 64-rank mask; Figure 2 needs n >= 4.
  reader.integer("--node", node, 0, 63)
      .integer("--n", n, 4, 64)
      .text("--out", out_dir);
  if (argc < 2) reader.refuse("missing subcommand");
  const std::string cmd = argv[1];
  const std::vector<std::string_view> positional =
      reader.read(argc, argv, 2, 2);

  if (cmd == "dump" && positional.size() == 1) {
    return cmd_dump(std::string(positional[0]), node);
  }
  if (cmd == "diff" && positional.size() == 2) {
    return cmd_diff(std::string(positional[0]), std::string(positional[1]),
                    node);
  }
  if (cmd == "fig2" && positional.empty()) return cmd_fig2(n, out_dir);
  if (cmd == "schema" && positional.empty()) return cmd_schema();
  reader.refuse("unknown subcommand or wrong arguments for " + cmd);
}
