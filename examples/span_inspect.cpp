// Inspect causal span exports from the agreement service (src/obs/spans,
// docs/OBSERVABILITY.md "Spans").
//
//   span_inspect demo <outdir>            run a small fault-injected
//                                         service, write spans.jsonl,
//                                         metrics.prom, samples.csv and
//                                         plan.txt into <outdir>
//   span_inspect timeline <spans.jsonl> [--job N] [--plan plan.txt]
//                                         reconstruct one job's full
//                                         admit -> rounds -> decide
//                                         timeline, attributing observed
//                                         perturbation to FaultPlan rules
//   span_inspect quantiles <spans.jsonl>  per-span-name duration
//                                         percentile table (streaming
//                                         QuantileSketch estimates)
//   span_inspect check <spans.jsonl>      validate the export: unique ids,
//                                         parents resolved by their
//                                         stored identity, ordered
//                                         windows (loading it already
//                                         rejects a non-canonical file)
//   span_inspect schema                   print the JSONL field reference
//
// Exit status: 0 on success; 1 when `check` finds a violation, the demo
// run reports condition violations, or an input fails to parse.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <tuple>
#include <vector>

#include "core/checker.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/quantiles.hpp"
#include "obs/spans.hpp"
#include "service/service.hpp"
#include "util/parse.hpp"

namespace {

using da::obs::Span;

constexpr const char* kUsage =
    "usage: span_inspect demo <outdir>\n"
    "       span_inspect timeline <spans.jsonl> [--job N] [--plan plan.txt]\n"
    "       span_inspect quantiles <spans.jsonl>\n"
    "       span_inspect check <spans.jsonl>\n"
    "       span_inspect schema";

std::vector<Span> load_spans(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "span_inspect: cannot open %s\n", path);
    std::exit(1);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto spans = da::obs::read_spans_jsonl(buf.str());
  if (!spans.has_value()) {
    std::fprintf(stderr, "span_inspect: %s: %s\n", path,
                 spans.error().to_string().c_str());
    std::exit(1);
  }
  return std::move(*spans);
}

std::int64_t tag_of(const Span& span, const char* key, std::int64_t fallback) {
  return span.tags.find(key).value_or(fallback);
}

std::string tags_line(const Span& span, const char* skip = nullptr) {
  std::string out;
  for (const auto& [k, v] : span.tags) {
    if (skip != nullptr && k == skip) continue;
    out += out.empty() ? "" : " ";
    out += k;
    out += '=';
    out += std::to_string(v);
  }
  return out;
}

/// A span identity as an ordered map key: parents are stored identities,
/// so the tree is walked without rendering an id string.
using IdentityKey = std::tuple<da::obs::SpanKind, std::int64_t, int, int>;

IdentityKey identity_key(const da::obs::SpanRef& ref) {
  return {ref.kind, ref.job, ref.sub, ref.round};
}

/// The scripted-rule lines of a fault-plan text file, in declaration
/// order, so `rule<k>` span tags can be labelled with the rule they index.
std::vector<std::string> plan_rule_lines(const char* path) {
  std::vector<std::string> rules;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    const std::string body = line.substr(start);
    if (body.rfind("drop", 0) == 0 || body.rfind("dup", 0) == 0 ||
        body.rfind("delay", 0) == 0) {
      rules.push_back(body);
    }
  }
  return rules;
}

// ---------------------------------------------------------------- demo --

int run_demo(const char* outdir) {
  using namespace da::service;

  std::error_code mkdir_error;
  std::filesystem::create_directories(outdir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "span_inspect: cannot create %s: %s\n", outdir,
                 mkdir_error.message().c_str());
    return 1;
  }

  // One BYZ(1,4) shape at n=7 with spec-faulty {2,3}; the plan only
  // perturbs traffic *from* those already-faulty nodes, so every verdict
  // stays within the degraded promise (D.3 holds: f=2 <= u=4) and the
  // demo exits 0 while still exercising drop/delay attribution.
  const char* plan_text =
      "seed 99\n"
      "drop from=2 to=1 round=1\n"
      "delay from=3 to=* round=*\n";
  auto plan = da::inject::FaultPlan::parse(plan_text);
  if (!plan.has_value()) {
    std::fprintf(stderr, "span_inspect: demo plan: %s\n",
                 plan.error().to_string().c_str());
    return 1;
  }

  ServiceConfig config;
  config.arrivals = ArrivalSpec::poisson(4.0);
  config.offered = 40;
  config.cap = 8;
  config.round_period = 1.0;
  config.seed = 7;
  config.jobs = 1;
  config.mix.push_back({JobKind::kByz, da::Config{.n = 7, .m = 1, .u = 4}, 0,
                        da::Value::of(17), {2, 3}});
  config.record_spans = true;
  config.sample_every = 2.0;
  config.fault_plan = *plan;
  config.inject_every = 2;  // every other job runs under the plan

  const ServiceResult result = run_service(config);

  const std::string dir = outdir;
  const std::string spans_path = dir + "/spans.jsonl";
  if (!da::obs::write_spans_jsonl(result.spans, spans_path)) {
    std::fprintf(stderr, "span_inspect: cannot write %s\n",
                 spans_path.c_str());
    return 1;
  }
  const std::string prom_path = dir + "/metrics.prom";
  if (!da::obs::write_exposition(da::obs::MetricsRegistry::global().snapshot(),
                                 prom_path)) {
    std::fprintf(stderr, "span_inspect: cannot write %s\n", prom_path.c_str());
    return 1;
  }
  {
    std::ofstream out(dir + "/plan.txt", std::ios::binary);
    out << plan->serialize();
  }
  {
    std::ofstream out(dir + "/samples.csv", std::ios::binary);
    out << "time,active,queued,completed,shed,latency_p50,latency_p99\n";
    char line[160];
    for (const ServiceSample& s : result.samples) {
      std::snprintf(line, sizeof line, "%.6f,%d,%zu,%llu,%llu,%.6f,%.6f\n",
                    s.time, s.active, s.queued,
                    static_cast<unsigned long long>(s.completed),
                    static_cast<unsigned long long>(s.shed), s.latency_p50,
                    s.latency_p99);
      out << line;
    }
  }

  std::printf("demo: offered=%llu completed=%llu shed=%llu violations=%llu\n",
              static_cast<unsigned long long>(config.offered),
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.shed),
              static_cast<unsigned long long>(result.violations));
  std::printf("demo: %zu spans, %zu samples -> %s\n", result.spans.size(),
              result.samples.size(), dir.c_str());
  std::printf("demo: latency sketch p50=%.3f p99=%.3f (n=%llu)\n",
              result.latency_sketch.quantile(0.5),
              result.latency_sketch.quantile(0.99),
              static_cast<unsigned long long>(result.latency_sketch.count()));
  return result.violations == 0 ? 0 : 1;
}

// ------------------------------------------------------------ timeline --

int run_timeline(const std::vector<Span>& spans, std::int64_t want_job,
                 const std::vector<std::string>& rule_labels) {
  // Default to the first job whose rounds carry injection tags — the
  // interesting one to attribute.
  if (want_job < 0) {
    for (const Span& s : spans) {
      if (s.name == "round" && !s.tags.empty()) {
        want_job = s.job;
        break;
      }
    }
    if (want_job < 0 && !spans.empty()) want_job = spans.front().job;
  }

  const Span* job = nullptr;
  const Span* queue = nullptr;
  const Span* decide = nullptr;
  std::map<int, const Span*> insts;                     // by sub
  std::map<int, std::vector<const Span*>> rounds;       // by sub
  for (const Span& s : spans) {
    if (s.job != want_job) continue;
    if (s.name == "job") job = &s;
    if (s.name == "queue") queue = &s;
    if (s.name == "decide") decide = &s;
    if (s.name == "inst") insts[s.sub] = &s;
    if (s.name == "round") rounds[s.sub].push_back(&s);
  }
  if (job == nullptr) {
    std::fprintf(stderr, "span_inspect: no job span for job %lld\n",
                 static_cast<long long>(want_job));
    return 1;
  }

  std::printf("job %lld  [%.6f, %.6f]  latency %.6f  tmpl=%lld adv=%lld%s\n",
              static_cast<long long>(want_job), job->t0, job->t1,
              job->t1 - job->t0,
              static_cast<long long>(tag_of(*job, "tmpl", -1)),
              static_cast<long long>(tag_of(*job, "adv", -1)),
              tag_of(*job, "shed", 0) != 0 ? "  SHED" : "");
  if (queue != nullptr) {
    std::printf("  queue    [%.6f, %.6f]  wait %.6f  width=%lld\n", queue->t0,
                queue->t1, queue->t1 - queue->t0,
                static_cast<long long>(tag_of(*queue, "width", 1)));
  }
  // Per-rule perturbation totals across the whole job, for attribution.
  std::map<int, std::int64_t> rule_totals;
  for (const auto& [sub, inst] : insts) {
    std::printf("  inst %d   [%.6f, %.6f]  rounds=%lld  %s\n", sub, inst->t0,
                inst->t1, static_cast<long long>(tag_of(*inst, "rounds", -1)),
                tags_line(*inst, "rounds").c_str());
    for (const Span* r : rounds[sub]) {
      std::printf("    round %-3d [%.6f, %.6f]  %s\n", r->round, r->t0, r->t1,
                  tags_line(*r).c_str());
      for (const auto& [k, v] : r->tags) {
        int rule = 0;
        if (k.rfind("rule", 0) == 0 &&
            da::parse_number(std::string_view(k).substr(4), rule)) {
          rule_totals[rule] += v;
        }
      }
    }
  }
  if (decide != nullptr) {
    const auto cond = static_cast<da::Condition>(tag_of(*decide, "cond", 0));
    std::printf("  decide   at %.6f  %s  condition=%s\n", decide->t0,
                tag_of(*decide, "ok", 1) != 0 ? "ok" : "VIOLATED",
                da::to_string(cond));
  }
  if (!rule_totals.empty()) {
    std::printf("  fault attribution:\n");
    for (const auto& [rule, hits] : rule_totals) {
      const char* label =
          rule >= 0 && static_cast<std::size_t>(rule) < rule_labels.size()
              ? rule_labels[static_cast<std::size_t>(rule)].c_str()
              : "(pass --plan to label)";
      std::printf("    rule%d: %lld message(s)  %s\n", rule,
                  static_cast<long long>(hits), label);
    }
  }
  return 0;
}

// ----------------------------------------------------------- quantiles --

int run_quantiles(const std::vector<Span>& spans) {
  std::map<std::string, da::obs::QuantileSketch> by_name;
  for (const Span& s : spans) {
    by_name[std::string(s.name)].record(s.t1 - s.t0);
  }
  std::printf("%-8s %8s %10s %10s %10s %10s %10s\n", "span", "count", "min",
              "p50", "p90", "p99", "max");
  for (const auto& [name, sketch] : by_name) {
    std::printf("%-8s %8llu %10.4f %10.4f %10.4f %10.4f %10.4f\n",
                name.c_str(), static_cast<unsigned long long>(sketch.count()),
                sketch.min(), sketch.quantile(0.5), sketch.quantile(0.9),
                sketch.quantile(0.99), sketch.max());
  }
  return 0;
}

// --------------------------------------------------------------- check --

int run_check(const std::vector<Span>& spans) {
  int errors = 0;
  const auto fail = [&errors](const std::string& msg) {
    std::fprintf(stderr, "check: %s\n", msg.c_str());
    ++errors;
  };

  std::map<IdentityKey, const Span*> by_id;
  for (const Span& s : spans) {
    if (!by_id.emplace(identity_key(s.ref()), &s).second) {
      fail("duplicate id " + s.id());
    }
    if (s.t1 < s.t0) fail("inverted window on " + s.id());
  }
  constexpr double kEps = 1e-9;
  for (const Span& s : spans) {
    if (s.parent.empty()) continue;
    const auto it = by_id.find(identity_key(s.parent));
    if (it == by_id.end()) {
      fail("unresolvable parent " + s.parent.id() + " of " + s.id());
      continue;
    }
    const Span& p = *it->second;
    if (s.t0 < p.t0 - kEps || s.t1 > p.t1 + kEps) {
      fail("child " + s.id() + " escapes parent " + p.id() + " window");
    }
  }

  if (errors == 0) {
    std::printf("check: OK (%zu spans, %zu roots)\n", spans.size(),
                static_cast<std::size_t>(std::count_if(
                    spans.begin(), spans.end(),
                    [](const Span& s) { return s.parent.empty(); })));
    return 0;
  }
  std::fprintf(stderr, "check: %d error(s)\n", errors);
  return 1;
}

// -------------------------------------------------------------- schema --

int run_schema() {
  std::puts(
      "span JSONL: one compact JSON object per line, canonical order\n"
      "  id      string  name[:job][.sub][#round], derived from identity\n"
      "  name    string  job|queue|inst|round|decide|recycle|"
      "send|deliver|resolve\n"
      "  job     int     owning service job id, -1 for runtime spans\n"
      "  sub     int     sub-instance (IC coordinate), -1 when n/a\n"
      "  round   int     round index, -1 when n/a\n"
      "  t0, t1  number  virtual time (service) or round units (runtime)\n"
      "  parent  string  id of the causing span, \"\" = root\n"
      "  tags    object  int64-valued labels: tmpl/adv/width/rounds/ok/"
      "cond,\n"
      "                  messages/dropped/nodes (runtime phases),\n"
      "                  inj_* and rule<k> fault-injection attribution");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t job = -1;  // unset: the first job with injected rounds
  std::string plan;
  da::ArgReader reader("span_inspect", kUsage);
  reader.integer<std::int64_t>("--job", job, 0,
                               std::numeric_limits<std::int64_t>::max())
      .text("--plan", plan);
  if (argc < 2) reader.refuse("missing subcommand");
  const std::string_view cmd = argv[1];
  const std::vector<std::string_view> positional =
      reader.read(argc, argv, 2, 1);

  if (cmd == "schema" && positional.empty()) return run_schema();
  if (cmd == "demo" && positional.size() == 1) {
    return run_demo(positional[0].data());
  }
  if ((cmd == "quantiles" || cmd == "check" || cmd == "timeline") &&
      positional.size() == 1) {
    const std::vector<Span> spans = load_spans(positional[0].data());
    if (cmd == "quantiles") return run_quantiles(spans);
    if (cmd == "check") return run_check(spans);
    return run_timeline(spans, job, plan_rule_lines(plan.c_str()));
  }
  reader.refuse("wrong arguments for `" + std::string(cmd) + "`");
}
