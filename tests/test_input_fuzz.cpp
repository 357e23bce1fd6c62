// Seeded mutation tests for every external text reader: FaultPlan,
// `da-frontier` (v2), obs::Json, trace JSONL and span JSONL. Each
// trial applies one to three edits — replace, delete or insert a byte,
// duplicate a line, swap two lines, truncate — to a seed text taken from
// a real export or a docs fence, and feeds the result to the reader. An
// accepted input must satisfy the format's round-trip law; a rejected one
// must carry a typed ParseError with a line. Nothing may throw (a
// contract abort fails the test).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/agreement.hpp"
#include "faults/behavior_search.hpp"
#include "faults/figure2.hpp"
#include "faults/frontier.hpp"
#include "inject/fault_plan.hpp"
#include "obs/json.hpp"
#include "obs/spans.hpp"
#include "obs/trace_export.hpp"
#include "service/service.hpp"
#include "sim/message.hpp"
#include "sim/trace.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace da {
namespace {

constexpr int kTrials = 100'000;

/// Every ```<fence> block of docs/<file>, in order.
std::vector<std::string> docs_fences(const char* file, const char* fence) {
  std::ifstream in(std::string(DA_DOCS_DIR) + "/" + file);
  EXPECT_TRUE(in.is_open()) << file;
  std::vector<std::string> out;
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    if (!inside && line == std::string("```") + fence) {
      inside = true;
      out.emplace_back();
    } else if (inside && line == "```") {
      inside = false;
    } else if (inside) {
      out.back() += line + "\n";
    }
  }
  EXPECT_FALSE(out.empty()) << "no ```" << fence << " fence in " << file;
  return out;
}

/// Applies one to three random edits to `text`.
std::string mutate(std::string text, Rng& rng) {
  static const std::string kAlphabet =
      "0123456789-+.eE:#,{}[]\"\\ =*_/abcdefhlnorstuvx\n\t\r\x01\x7f\xc3";
  const auto lines = [](const std::string& s) {
    std::vector<std::string> out;
    for (std::size_t at = 0; at < s.size();) {
      const std::size_t end = std::min(s.find('\n', at), s.size() - 1);
      out.push_back(s.substr(at, end + 1 - at));
      at = end + 1;
    }
    return out;
  };
  const int edits = 1 + static_cast<int>(rng.below(3));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng.below(text.size());
    const char c = kAlphabet[rng.below(kAlphabet.size())];
    switch (rng.below(6)) {
      case 0:
        text[at] = c;
        break;
      case 1:
        text.erase(at, 1);
        break;
      case 2:
        text.insert(at, 1, c);
        break;
      case 3: {  // duplicate a line in place
        std::vector<std::string> ls = lines(text);
        const std::size_t k = rng.below(ls.size());
        ls.insert(ls.begin() + static_cast<std::ptrdiff_t>(k), ls[k]);
        text.clear();
        for (const std::string& l : ls) text += l;
        break;
      }
      case 4: {  // swap two lines
        std::vector<std::string> ls = lines(text);
        std::swap(ls[rng.below(ls.size())], ls[rng.below(ls.size())]);
        text.clear();
        for (const std::string& l : ls) text += l;
        break;
      }
      default:
        text.resize(at);
    }
  }
  return text;
}

/// Runs kTrials mutations of `seeds` through `check`, which returns the
/// reader's error for a rejected text (and asserts the round-trip law for
/// an accepted one). Every rejection must be typed and placed on a line.
void fuzz(const char* format, const std::vector<std::string>& seeds,
          std::uint64_t seed,
          const std::function<std::optional<ParseError>(const std::string&)>&
              check) {
  ASSERT_FALSE(seeds.empty());
  for (const std::string& text : seeds) {
    const std::optional<ParseError> error = check(text);
    ASSERT_FALSE(error.has_value()) << format << " seed rejected: "
                                    << error->to_string() << "\n" << text;
  }
  Rng rng(seed);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string text = mutate(seeds[rng.below(seeds.size())], rng);
    const std::optional<ParseError> error = check(text);
    if (error) {
      ++rejected;
      EXPECT_GE(error->line, 1u) << error->to_string();
      EXPECT_STRNE(to_string(error->kind), "?");
    } else {
      ++accepted;
    }
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << format << " trial " << trial << " on:\n" << text;
      return;
    }
  }
  std::printf("[ InputFuzz ] %s: %d accepted, %d rejected of %d\n", format,
              accepted, rejected, kTrials);
  EXPECT_GT(accepted, 0) << format;
  EXPECT_GT(rejected, 0) << format;
}

/// The check for a machine-written format: accepted means the writer
/// gives back the input bytes.
template <typename Read, typename Write>
auto exact(Read read, Write write) {
  return [read, write](const std::string& text) -> std::optional<ParseError> {
    const auto parsed = read(text);
    if (!parsed) return parsed.error();
    EXPECT_EQ(write(*parsed), text) << "accepted but does not round-trip";
    return std::nullopt;
  };
}

// -------------------------------------------------------------- frontier

std::vector<std::string> frontier_seeds() {
  constexpr Config kViolating{.n = 4, .m = 1, .u = 2};
  faults::Frontier fresh = faults::init_behavior_frontier(kViolating);
  faults::Frontier settled = fresh;
  faults::FrontierRunOptions options;
  EXPECT_TRUE(faults::run_behavior_frontier(settled, options).error.empty());
  std::vector<std::string> seeds = {serialize_frontier(fresh),
                                    serialize_frontier(settled)};
  for (const std::string& fence : docs_fences("SEARCH.md", "frontier")) {
    seeds.push_back(fence);
  }
  return seeds;
}

TEST(InputFuzz, FrontierV2) {
  fuzz("da-frontier v2", frontier_seeds(), 2,
       exact(faults::parse_frontier, faults::serialize_frontier));
}

// ----------------------------------------------------------- trace JSONL

TEST(InputFuzz, TraceJsonl) {
  // A real export (Figure 2 scenario (a)), one slice per receiving node,
  // plus records with every field away from its default and with paths
  // at the edges of what a Path stores: hops -128 and 127, 12 hops.
  const auto scenario = faults::figure2::scenario_a(4);
  sim::Trace trace;
  RunExtras extras;
  extras.trace = &trace;
  (void)DegradableAgreement(scenario.spec.config)
      .run(scenario.spec, scenario.adversary.get(), extras);
  std::vector<sim::Trace> slices(4);
  for (const sim::Message& msg : trace.canonical()) {
    slices[static_cast<std::size_t>(msg.to) % slices.size()].record(msg);
  }
  sim::Message odd;
  odd.to = 2147483647;
  odd.from = -1;
  odd.round = -3;
  odd.path = {0, 3, 2};
  odd.value = Value::of(-9223372036854775807 - 1);
  odd.aux = 42;
  sim::Message edge = odd;
  edge.path = {-128, 127, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  edge.value = Value::def();
  edge.aux = -7;
  sim::Trace odd_trace;
  for (const sim::Message& msg : {odd, odd, edge}) odd_trace.record(msg);
  slices.push_back(odd_trace);
  std::vector<std::string> seeds;
  for (const sim::Trace& slice : slices) {
    seeds.push_back(obs::trace_to_jsonl(slice));
  }
  fuzz("trace JSONL", seeds, 3,
       exact(obs::read_trace_jsonl,
             [](const sim::Trace& t) { return obs::trace_to_jsonl(t); }));
}

// ------------------------------------------------------------ span JSONL

TEST(InputFuzz, SpanJsonl) {
  // A hand-built service span tree (job, queue, inst, round, with
  // parents, a negative tag and a multi-digit sub) and the first lines of
  // a fault-injected service run's export.
  std::vector<obs::Span> tree;
  for (std::int64_t j = 0; j < 2; ++j) {
    const auto t = static_cast<double>(j);
    obs::Span job;
    job.name = "job";
    job.job = j;
    job.t0 = t;
    job.t1 = t + 2.5;
    job.tags = {{"class", 1}, {"deadline", -2}, {"tmpl", 3}};
    obs::Span queue = job;
    queue.name = "queue";
    queue.t1 = t + 0.5;
    queue.parent = {obs::SpanKind::kJob, j};
    queue.tags = {};
    obs::Span inst = queue;
    inst.name = "inst";
    inst.sub = 10;
    inst.t0 = t + 0.5;
    inst.t1 = t + 2.5;
    inst.tags = {{"rounds", 2}, {"width", 4}};
    tree.push_back(job);
    tree.push_back(queue);
    tree.push_back(inst);
    for (int r = 0; r < 2; ++r) {
      obs::Span round = inst;
      round.name = "round";
      round.round = r;
      round.t0 = t + 0.5 + r;
      round.t1 = round.t0 + 1.0;
      round.parent = {obs::SpanKind::kInst, j, 10};
      round.tags = {};
      tree.push_back(round);
    }
  }
  service::ServiceConfig config;
  config.arrivals = service::ArrivalSpec::poisson(12.0);
  config.offered = 12;
  config.cap = 4;
  config.seed = 7;
  config.record_spans = true;
  config.fault_plan =
      *inject::FaultPlan::parse("seed 9\ndrop from=2 to=1 round=1\n");
  config.inject_every = 2;
  const service::ServiceResult result = service::run_service(config);
  std::vector<std::string> seeds = {obs::spans_to_jsonl(tree)};
  for (std::size_t at = 0; at + 12 <= result.spans.size() && at < 48;
       at += 12) {
    seeds.push_back(obs::spans_to_jsonl(
        {result.spans.begin() + static_cast<std::ptrdiff_t>(at),
         result.spans.begin() + static_cast<std::ptrdiff_t>(at + 12)}));
  }
  fuzz("span JSONL", seeds, 4,
       exact(obs::read_spans_jsonl, obs::spans_to_jsonl));
}

// ------------------------------------------------------------- FaultPlan

TEST(InputFuzz, FaultPlan) {
  // Hand-edited: accepted means parse(serialize(p)) == p and serialize
  // is a fixed point, not byte identity with the input.
  std::vector<std::string> seeds = docs_fences("INJECTION.md", "plan");
  seeds.push_back("\t# lenient spelling\n\nseed 01\ndrop  round=2\tto=3 "
                  "from=01 \nrates delay=.1 drop=5e-2");
  for (std::uint64_t s = 0; s < 4; ++s) {
    seeds.push_back(inject::FaultPlan::from_seed(s, 5, 3).serialize());
  }
  fuzz("FaultPlan", seeds, 5,
       [](const std::string& text) -> std::optional<ParseError> {
         const auto plan = inject::FaultPlan::parse(text);
         if (!plan) return plan.error();
         const std::string canonical = plan->serialize();
         const auto back = inject::FaultPlan::parse(canonical);
         EXPECT_TRUE(back.has_value()) << canonical;
         if (back) {
           EXPECT_EQ(*back, *plan) << canonical;
           EXPECT_EQ(back->serialize(), canonical);
         }
         return std::nullopt;
       });
}

// ------------------------------------------------------------------ Json

TEST(InputFuzz, Json) {
  obs::Json doc = obs::Json::object();
  obs::Json list = obs::Json::array();
  for (const obs::Json& v :
       {obs::Json(0), obs::Json(-17), obs::Json(2.5), obs::Json(1e300),
        obs::Json(-0.125), obs::Json(3.0), obs::Json(nullptr),
        obs::Json(true), obs::Json("tab\tquote\"\x01 \xc3\xa9")}) {
    list.push_back(v);
  }
  doc.set("list", list).set("empty", obs::Json::object());
  doc.set("big", obs::Json(std::int64_t{9007199254740993}));
  std::vector<std::string> seeds = {
      doc.dump(), doc.dump(2),
      R"({"u":"Aé😀\/\b\f\n\r\t\u0041\ud83d\ude00","n":[1E2,-0.5e-3,0]})"};
  seeds.push_back(docs_fences("OBSERVABILITY.md", "spans").front());
  fuzz("Json", seeds, 6,
       [](const std::string& text) -> std::optional<ParseError> {
         const auto v = obs::Json::parse(text);
         if (!v) return v.error();
         const auto back = obs::Json::parse(v->dump());
         EXPECT_TRUE(back.has_value()) << v->dump();
         if (back) {
           EXPECT_EQ(*back, *v) << v->dump();
         }
         return std::nullopt;
       });
}

}  // namespace
}  // namespace da
