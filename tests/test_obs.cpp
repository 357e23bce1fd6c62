// The observability layer (src/obs/): the JSON document type and parser,
// the metrics registry with its thread-local sinks, the canonical JSONL
// trace export with per-node diffing, the bench report schema validator,
// and the metric catalogue in docs/OBSERVABILITY.md checked against the
// live registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/agreement.hpp"
#include "faults/behavior_search.hpp"
#include "faults/figure2.hpp"
#include "inject/fault_plan.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "service/frontend.hpp"
#include "sim/message.hpp"
#include "sim/trace.hpp"
#include "sweep/sweep.hpp"

namespace da::obs {
namespace {

// ---------------------------------------------------------------- json --

TEST(Json, ScalarsDumpCompact) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(-3).dump(), "-3");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, IntegersRoundTripExactly) {
  const std::int64_t big = 9007199254740993;  // not representable as double
  const auto parsed = Json::parse(Json(big).dump());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_integer());
  EXPECT_EQ(parsed->as_int(), big);
}

TEST(Json, Uint64AboveInt64MaxBecomesDouble) {
  const Json j(static_cast<std::uint64_t>(1) << 63);
  EXPECT_FALSE(j.is_integer());
  EXPECT_TRUE(j.is_number());
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(Json, ObjectPreservesInsertionOrderAndSetReplaces) {
  Json obj = Json::object();
  obj.set("z", 1).set("a", 2).set("z", 3);
  EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(obj.find("a")->as_int(), 2);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\n\t\x01").dump(),
            "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(Json, ParseRoundTripsNestedDocument) {
  Json doc = Json::object();
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(2.5);
  arr.push_back("three");
  arr.push_back(nullptr);
  doc.set("list", arr);
  doc.set("ok", true);

  const std::string pretty = doc.dump(2);
  const auto parsed = Json::parse(pretty);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, doc);
}

TEST(Json, ParseUnicodeEscape) {
  const auto parsed = Json::parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "A\xc3\xa9");
  // A surrogate pair is one code point: U+1F600 as 4 bytes of UTF-8.
  const auto pair = Json::parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(pair.has_value()) << pair.error().to_string();
  EXPECT_EQ(pair->as_string(), "\xf0\x9f\x98\x80");
  // A lone surrogate has no UTF-8 encoding.
  for (const char* lone : {"\"\\ud800\"", "\"\\ude00\"", "\"\\ud83dx\"",
                           "\"\\ud83d\\u0041\""}) {
    const auto bad = Json::parse(lone);
    ASSERT_FALSE(bad.has_value()) << lone;
    EXPECT_EQ(bad.error().kind, ParseKind::kBadValue) << lone;
  }
}

TEST(Json, ParseRejectsMalformedInput) {
  const auto error_of = [](std::string_view text) {
    const auto parsed = Json::parse(text);
    EXPECT_FALSE(parsed.has_value()) << text;
    return parsed ? ParseError{} : parsed.error();
  };
  EXPECT_EQ(error_of("{\"a\":}").kind, ParseKind::kSyntax);
  EXPECT_FALSE(error_of("{\"a\":}").message.empty());
  EXPECT_EQ(error_of("[1,2").kind, ParseKind::kSyntax);
  EXPECT_EQ(error_of("1 trailing").column, 3u);
  EXPECT_EQ(error_of("").kind, ParseKind::kSyntax);
  // Numbers follow the RFC 8259 grammar exactly.
  for (const char* number :
       {".5", "2.", "01", "+1", "-", "1e", "1.e5", "0x1"}) {
    EXPECT_EQ(error_of(number).kind, ParseKind::kSyntax) << number;
  }
  // A number a double cannot hold is an error, not null.
  EXPECT_EQ(error_of("1e999").kind, ParseKind::kBadValue);
  EXPECT_EQ(error_of("[-1e999]").column, 2u);
  // A raw control character in a string must be escaped.
  const ParseError tab = error_of("{\n\"a\": \"x\ty\"}");
  EXPECT_EQ(tab.kind, ParseKind::kSyntax);
  EXPECT_EQ(tab.line, 2u);
  EXPECT_EQ(tab.column, 8u);
  // Valid spellings still parse, and an integral double stays a double.
  const auto ok = Json::parse("[0, -0, 1.5e3, 2E-2, -0.25, 1.0]");
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->at(1).is_integer());
  EXPECT_FALSE(ok->at(5).is_integer());
  EXPECT_EQ(ok->dump(), "[0,0,1500.0,0.02,-0.25,1.0]");
  EXPECT_EQ(*Json::parse(ok->dump()), *ok);
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, CounterAddsFlushOnScopeExit) {
  auto& registry = MetricsRegistry::global();
  const std::uint64_t before = registry.counter_value("test.obs.counter");
  {
    const MetricsScope scope;
    const Counter counter("test.obs.counter");
    counter.add();
    counter.add(4);
  }
  EXPECT_EQ(registry.counter_value("test.obs.counter"), before + 5);
}

TEST(Metrics, PerThreadSinksMergeAcrossThreads) {
  auto& registry = MetricsRegistry::global();
  const std::uint64_t before = registry.counter_value("test.obs.threads");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAddsPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      const MetricsScope scope;
      const Counter counter("test.obs.threads");
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) counter.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter_value("test.obs.threads"),
            before + kThreads * kAddsPerThread);
}

TEST(Metrics, BucketOfIsMonotonicAndClamped) {
  EXPECT_EQ(QuantileSketch::bucket_of(0.0), 0u);
  std::size_t previous = 0;
  for (double v = 1e-7; v < 1e7; v *= 1.5) {
    const std::size_t bucket = QuantileSketch::bucket_of(v);
    EXPECT_GE(bucket, previous);
    EXPECT_LT(bucket, QuantileSketch::kBuckets);
    previous = bucket;
  }
  EXPECT_EQ(QuantileSketch::bucket_of(1e30), QuantileSketch::kBuckets - 1);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  auto& registry = MetricsRegistry::global();
  registry.set_gauge("test.obs.gauge", 1.0);
  registry.set_gauge("test.obs.gauge", 8.0);
  const auto snap = registry.snapshot();
  const auto it = snap.gauges.find("test.obs.gauge");
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_EQ(it->second, 8.0);
}

// -------------------------------------------------------- trace export --

sim::Trace figure2_trace(const faults::figure2::Scenario& scenario) {
  sim::Trace trace;
  const DegradableAgreement protocol(scenario.spec.config);
  RunExtras extras;
  extras.trace = &trace;
  (void)protocol.run(scenario.spec, scenario.adversary.get(), extras);
  return trace;
}

TEST(TraceExport, EventsAreCanonicalAndRoundTrip) {
  const auto scenario = faults::figure2::scenario_a(4);
  const sim::Trace trace = figure2_trace(scenario);
  const auto events = trace_events(trace);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.size(), trace.total_messages());
  for (std::size_t i = 1; i < events.size(); ++i) {
    const auto key = [](const TraceEvent& e) {
      return std::tuple(e.to, e.round, e.from, e.path);
    };
    EXPECT_LE(key(events[i - 1]), key(events[i]));
  }

  const std::string jsonl = trace_to_jsonl(events);
  const auto parsed = read_trace_jsonl(jsonl);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  EXPECT_EQ(*parsed, events);
}

TEST(TraceExport, IndistinguishableExecutionsExportIdentically) {
  // The Figure 2 (a)/(b) pair: node B (id 2) must see byte-identical
  // transcripts — the machine-checkable heart of the Theorem 2 proof.
  const auto sa = faults::figure2::scenario_a(4);
  const auto sb = faults::figure2::scenario_b(4);
  const auto ea = trace_events(figure2_trace(sa));
  const auto eb = trace_events(figure2_trace(sb));

  const auto only_node = [](const std::vector<TraceEvent>& events,
                            NodeId node) {
    std::vector<TraceEvent> out;
    for (const auto& e : events) {
      if (e.to == node) out.push_back(e);
    }
    return out;
  };
  EXPECT_EQ(trace_to_jsonl(only_node(ea, sb.pivot_node)),
            trace_to_jsonl(only_node(eb, sb.pivot_node)));

  const auto diff = diff_traces(ea, eb);
  bool pivot_seen = false;
  for (const auto& n : diff.nodes) {
    if (n.node == sb.pivot_node) {
      pivot_seen = true;
      EXPECT_TRUE(n.identical);
    }
  }
  EXPECT_TRUE(pivot_seen);
  // The executions differ overall (node A hears different stories).
  EXPECT_FALSE(diff.identical());
}

TEST(TraceExport, DiffReportsFirstDivergence) {
  TraceEvent base;
  base.to = 1;
  base.from = 0;
  base.round = 1;
  base.value_default = false;
  base.value = 7;

  TraceEvent changed = base;
  changed.round = 2;
  changed.value = 8;

  const std::vector<TraceEvent> a{base, changed};
  std::vector<TraceEvent> b{base, changed};
  b[1].value = 9;

  const auto diff = diff_traces(a, b);
  ASSERT_EQ(diff.nodes.size(), 1u);
  EXPECT_FALSE(diff.nodes[0].identical);
  EXPECT_EQ(diff.nodes[0].first_divergence, 1u);
  EXPECT_FALSE(diff.identical());

  // One side a strict prefix of the other: divergence at the shared length.
  const auto prefix_diff = diff_traces(a, {base});
  ASSERT_EQ(prefix_diff.nodes.size(), 1u);
  EXPECT_FALSE(prefix_diff.nodes[0].identical);
  EXPECT_EQ(prefix_diff.nodes[0].first_divergence, 1u);
}

TEST(TraceExport, ReadRejectsMalformedLinesWithLineNumber) {
  TraceEvent event;
  event.to = 1;
  event.from = 0;
  event.round = 1;
  const std::string valid_line = trace_to_jsonl({event});
  ASSERT_TRUE(read_trace_jsonl(valid_line).has_value());

  // The kind and the 1-based line of the first rejected line.
  const auto rejected = [](const std::string& text) {
    const auto parsed = read_trace_jsonl(text);
    EXPECT_FALSE(parsed.has_value()) << text;
    return parsed ? std::pair(ParseKind::kIo, std::size_t{0})
                  : std::pair(parsed.error().kind, parsed.error().line);
  };
  const auto with = [&valid_line](const std::string& from,
                                  const std::string& to) {
    std::string text = valid_line;
    return text.replace(text.find(from), from.size(), to);
  };
  EXPECT_EQ(rejected(valid_line + "not json\n"),
            std::pair(ParseKind::kSyntax, std::size_t{2}));
  EXPECT_EQ(read_trace_jsonl(valid_line + "not json\n").error().to_string(),
            "line 2, column 1: syntax: unexpected character");
  // Blank lines and a missing final newline are not the writer's bytes.
  EXPECT_EQ(rejected(valid_line + "\n" + valid_line),
            std::pair(ParseKind::kSyntax, std::size_t{2}));
  EXPECT_EQ(rejected(valid_line.substr(0, valid_line.size() - 1)),
            std::pair(ParseKind::kNotCanonical, std::size_t{1}));
  EXPECT_EQ(rejected(valid_line + " " + valid_line),
            std::pair(ParseKind::kNotCanonical, std::size_t{2}));
  // A field out of its C++ type's range is a typed error, not a wrap.
  EXPECT_EQ(rejected(valid_line +
                     with("\"wire_bytes\":0", "\"wire_bytes\":-1")),
            std::pair(ParseKind::kBadValue, std::size_t{2}));
  EXPECT_EQ(rejected(with("\"to\":1", "\"to\":4294967297")),
            std::pair(ParseKind::kBadValue, std::size_t{1}));
  EXPECT_EQ(rejected(with("\"path\":[]", "\"path\":[2147483648]")),
            std::pair(ParseKind::kBadValue, std::size_t{1}));
  EXPECT_EQ(rejected(with("\"value\":null", "\"value\":1.5")),
            std::pair(ParseKind::kBadValue, std::size_t{1}));
}

TEST(TraceExport, WireBytesMatchMessageSize) {
  sim::Message msg;
  msg.from = 0;
  msg.to = 1;
  msg.round = 1;
  msg.path = {0};
  msg.value = Value::of(7);
  sim::Trace trace;
  trace.record(msg);
  const auto events = trace_events(trace);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].wire_bytes, sim::wire_size_bytes(msg));
}

// ------------------------------------------------------- bench schema --

Json minimal_report() {
  Json report = Json::object();
  report.set("bench", "bench_x");
  report.set("seed", 7);
  report.set("jobs", 1);
  report.set("git_describe", "abc123");
  Json table = Json::object();
  table.set("name", "t");
  Json header = Json::array();
  header.push_back("col");
  table.set("header", header);
  Json row = Json::array();
  row.push_back("v");
  Json rows = Json::array();
  rows.push_back(row);
  table.set("rows", rows);
  Json tables = Json::array();
  tables.push_back(table);
  report.set("tables", tables);
  report.set("metrics", metrics_to_json());
  return report;
}

TEST(BenchSchema, AcceptsMinimalReport) {
  const std::optional<std::string> error =
      validate_bench_schema(minimal_report());
  EXPECT_FALSE(error) << *error;
}

TEST(BenchSchema, RejectsMissingOrMistypedFields) {
  for (const char* field : {"bench", "seed", "jobs", "git_describe", "tables",
                            "metrics"}) {
    Json report = minimal_report();
    Json broken = Json::object();
    for (const auto& [key, value] : report.as_object()) {
      if (key != field) broken.set(key, value);
    }
    const std::optional<std::string> error = validate_bench_schema(broken);
    ASSERT_TRUE(error) << field;
    EXPECT_NE(error->find(field), std::string::npos) << *error;
  }

  Json mistyped = minimal_report();
  mistyped.set("seed", "seven");
  EXPECT_TRUE(validate_bench_schema(mistyped).has_value());
}

TEST(BenchSchema, RejectsRowArityMismatch) {
  Json report = minimal_report();
  Json table = report.find("tables")->at(0);
  Json row = Json::array();
  row.push_back("a");
  row.push_back("b");  // header has one column
  Json rows = Json::array();
  rows.push_back(row);
  table.set("rows", rows);
  Json tables = Json::array();
  tables.push_back(table);
  report.set("tables", tables);
  EXPECT_TRUE(validate_bench_schema(report).has_value());
}

TEST(BenchSchema, MetricsToJsonContainsRegistryCounters) {
  {
    const MetricsScope scope;
    const Counter counter("test.obs.schema_counter");
    counter.add(3);
  }
  const Json metrics = metrics_to_json();
  const Json* counters = metrics.find("counters");
  ASSERT_NE(counters, nullptr);
  const Json* value = counters->find("test.obs.schema_counter");
  ASSERT_NE(value, nullptr);
  EXPECT_GE(value->as_int(), 3);
}

// ---------------------------------------------------- metric catalogue --

/// One row of the docs/OBSERVABILITY.md metric catalogue: the row's
/// prefix and the full names it documents, `<placeholder>` segments kept.
struct CatalogueRow {
  std::string prefix;
  std::vector<std::string> names;
};

/// Parses the catalogue table. A metric is a backticked token of the
/// metrics column shaped like a metric name (lower-case segments joined by
/// dots, `<placeholder>` allowed); file names and code references are not.
std::vector<CatalogueRow> read_catalogue() {
  std::ifstream in(DA_DOCS_DIR "/OBSERVABILITY.md");
  const std::regex metric(
      R"(^[a-z][a-z0-9_]*(<[a-z]+>)?(\.[a-z0-9_]+(<[a-z]+>)?)*$)");
  const std::regex file(R"(\.(cpp|hpp|md)$)");
  const std::regex code(R"(`([^`]+)`)");
  std::vector<CatalogueRow> rows;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("### Metric catalogue", 0) == 0) in_section = true;
    if (!in_section || line.rfind("| `", 0) != 0) {
      if (in_section && !rows.empty() && line.empty()) break;
      continue;
    }
    // | `prefix` | written by | metrics |
    const std::size_t c1 = line.find('|', 1);
    const std::size_t c2 = line.find('|', c1 + 1);
    CatalogueRow row;
    row.prefix = line.substr(3, line.find('`', 3) - 3);
    if (!row.prefix.empty() && row.prefix.back() == '*') {
      row.prefix.erase(row.prefix.find_last_of('.') + 1);
    }
    const std::string cell = line.substr(c2 + 1);
    for (auto it = std::sregex_iterator(cell.begin(), cell.end(), code);
         it != std::sregex_iterator(); ++it) {
      const std::string token = (*it)[1];
      if (std::regex_match(token, metric) && !std::regex_search(token, file)) {
        row.names.push_back(row.prefix + token);
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// A documented name as a pattern: `<placeholder>` matches one segment.
std::regex name_pattern(const std::string& name) {
  std::string out;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (name[i] == '<') {
      i = name.find('>', i);
      out += "[a-z0-9_]+";
    } else if (name[i] == '.') {
      out += "\\.";
    } else {
      out += name[i];
    }
  }
  return std::regex(out);
}

// The catalogue is the operator's map of the registry, so it must not
// drift: every metric a fault-heavy front-end stream and a behaviour
// search register is documented, and every metric the rows they exercise
// document is registered. The idea is tsuba's FaultTestReport, where each
// fault point reports its hit count — nothing is silently uncounted.
TEST(MetricCatalogue, RegistryAndDocsTableAgree) {
  const std::vector<CatalogueRow> rows = read_catalogue();
  ASSERT_GT(rows.size(), 10u);

  // A fault-heavy, overloaded two-shard stream: every injection outcome
  // (drop, duplicate, delay, crash), shedding and deadline misses.
  service::FrontendConfig front;
  front.shards = 2;
  service::ServiceConfig& svc = front.service;
  svc.arrivals = service::ArrivalSpec::poisson(30.0);
  svc.offered = 200;
  svc.cap = 8;
  svc.queue_cap = 8;
  svc.policy = service::OverloadPolicy::kShedOldest;
  svc.seed = 7;
  svc.jobs = 2;
  svc.mix = service::default_mix();
  for (auto& tmpl : svc.mix) {
    if (tmpl.admission == service::AdmissionClass::kLow) tmpl.deadline = 2.0;
  }
  auto plan = inject::FaultPlan::parse(
      "seed 5\ndrop from=2 to=1 round=1\ndup from=1 to=* copies=3\n"
      "delay from=3 to=*\ncrash node=2 down=1 restart=2\n"
      "rates drop=0.05 dup=0.05 delay=0.1\n");
  ASSERT_TRUE(plan.has_value());
  svc.fault_plan = *plan;
  svc.inject_every = 1;
  const service::FrontendResult stream = service::run_frontend(front);
  ASSERT_GT(stream.shed, 0u);

  // A behaviour search on the pool: sweep, search and quotient counters.
  sweep::SweepOptions sweep_options;
  sweep_options.jobs = 2;
  (void)faults::exhaustive_behavior_search(Config{.n = 4, .m = 1, .u = 1},
                                           faults::BehaviorSearchOptions{},
                                           sweep_options);

  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  std::set<std::string> registered;
  for (const auto& [name, value] : snap.counters) registered.insert(name);
  for (const auto& [name, value] : snap.gauges) registered.insert(name);
  for (const auto& [name, value] : snap.quantiles) registered.insert(name);

  std::vector<std::pair<std::string, std::regex>> documented;
  for (const CatalogueRow& row : rows) {
    for (const std::string& name : row.names) {
      documented.emplace_back(name, name_pattern(name));
    }
  }
  // Registry -> docs. `test.` names are the tests' own instruments.
  for (const std::string& name : registered) {
    if (name.rfind("test.", 0) == 0) continue;
    const bool found = std::any_of(
        documented.begin(), documented.end(), [&name](const auto& doc) {
          return std::regex_match(name, doc.second);
        });
    EXPECT_TRUE(found) << name << " is registered but not in the catalogue";
  }
  // Docs -> registry, for the rows these two workloads drive.
  const std::set<std::string> exercised = {
      "service.", "service.<class>.", "frontend.", "inject.",
      "sweep.",   "search.",          "search.canon."};
  for (const CatalogueRow& row : rows) {
    if (exercised.count(row.prefix) == 0) continue;
    for (const std::string& name : row.names) {
      const std::regex pattern = name_pattern(name);
      const bool found = std::any_of(
          registered.begin(), registered.end(), [&pattern](const auto& r) {
            return std::regex_match(r, pattern);
          });
      EXPECT_TRUE(found) << name << " is catalogued but was never registered";
    }
  }
}

}  // namespace
}  // namespace da::obs
