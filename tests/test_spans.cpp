// Causal span tracing + streaming quantile telemetry (src/obs/spans,
// src/obs/quantiles, src/obs/exposition): sketch math and exact-merge
// associativity, span export round-trips, cross-runtime phase-span
// identity, and the service's jobs-invariant span/sketch/sample exports.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/byz.hpp"
#include "event/event_runner.hpp"
#include "faults/adversaries.hpp"
#include "inject/injection_network.hpp"
#include "obs/exposition.hpp"
#include "obs/quantiles.hpp"
#include "obs/spans.hpp"
#include "rt/threaded_runner.hpp"
#include "service/frontend.hpp"
#include "service/service.hpp"
#include "sha256.hpp"
#include "sim/round_engine.hpp"
#include "util/rng.hpp"

namespace da {
namespace {

using obs::QuantileSketch;
using obs::Span;
using obs::SpanSink;

// ----------------------------------------------------------- sketches --

TEST(QuantileSketch, BucketOfCoversAllDoubles) {
  EXPECT_EQ(QuantileSketch::bucket_of(0.0), 0u);
  EXPECT_EQ(QuantileSketch::bucket_of(-1.0), 0u);
  EXPECT_EQ(QuantileSketch::bucket_of(std::nan("")), 0u);
  EXPECT_EQ(QuantileSketch::bucket_of(std::ldexp(1.0, -40)), 0u);
  EXPECT_EQ(QuantileSketch::bucket_of(std::numeric_limits<double>::infinity()),
            QuantileSketch::kBuckets - 1);
  EXPECT_EQ(QuantileSketch::bucket_of(std::ldexp(1.0, 20)),
            QuantileSketch::kBuckets - 1);
  // Monotone over the covered range.
  std::size_t prev = 0;
  for (double v = 1e-5; v < 4000.0; v *= 1.07) {
    const std::size_t b = QuantileSketch::bucket_of(v);
    EXPECT_GE(b, prev) << v;
    prev = b;
  }
}

TEST(QuantileSketch, BucketMidIsInsideItsBucket) {
  for (double v : {0.001, 0.5, 1.0, 1.5, 3.0, 42.0, 1000.0}) {
    const std::size_t b = QuantileSketch::bucket_of(v);
    const double mid = QuantileSketch::bucket_mid(b);
    EXPECT_EQ(QuantileSketch::bucket_of(mid), b) << v;
  }
}

TEST(QuantileSketch, QuantileWithinRelativeErrorBound) {
  QuantileSketch sketch;
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const double v = 0.1 + 10.0 * rng.uniform();
    values.push_back(v);
    sketch.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    const double approx = sketch.quantile(q);
    // 2^(1/32)-1 bucket width plus nearest-rank slack.
    EXPECT_NEAR(approx, exact, exact * 0.05 + 1e-9) << q;
  }
  EXPECT_EQ(sketch.count(), 5000u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), sketch.min());
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), sketch.max());
}

TEST(QuantileSketch, EmptyAndSingletonBehave) {
  QuantileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.quantile(0.5), 0.0);
  sketch.record(3.25);
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_DOUBLE_EQ(sketch.min(), 3.25);
  EXPECT_DOUBLE_EQ(sketch.max(), 3.25);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 3.25);  // clamped to [min, max]
}

TEST(QuantileSketch, MergeEqualsBulkRecord) {
  QuantileSketch a;
  QuantileSketch b;
  QuantileSketch bulk;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform() * 100.0;
    (i % 2 == 0 ? a : b).record(v);
    bulk.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.serialize(), bulk.serialize());
  EXPECT_EQ(a.count(), bulk.count());
}

// The determinism linchpin: merging thread-local sketches must yield the
// same canonical state no matter how the flush order associates.
TEST(QuantileSketch, MergeIsAssociativeAndCommutative) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    QuantileSketch parts[3];
    for (int i = 0; i < 200; ++i) {
      parts[rng.below(3)].record(rng.uniform() * 1000.0 - 200.0);
    }
    QuantileSketch left = parts[0];   // (a + b) + c
    left.merge(parts[1]);
    left.merge(parts[2]);
    QuantileSketch right = parts[2];  // a + (c + b), a folded last
    right.merge(parts[1]);
    right.merge(parts[0]);
    EXPECT_EQ(left.serialize(), right.serialize()) << trial;
  }
}

TEST(QuantileSketch, SerializeExcludesSum) {
  // Same samples in different order: sums may differ in the last ulp,
  // canonical serialization must not.
  QuantileSketch fwd;
  QuantileSketch rev;
  std::vector<double> values;
  Rng rng(17);
  for (int i = 0; i < 300; ++i) values.push_back(rng.uniform() * 7.0 + 0.01);
  for (double v : values) fwd.record(v);
  std::reverse(values.begin(), values.end());
  for (double v : values) rev.record(v);
  EXPECT_EQ(fwd.serialize(), rev.serialize());
  EXPECT_NE(fwd.serialize().find("qsketch/1"), std::string::npos);
}

// -------------------------------------------------------------- spans --

TEST(Span, IdDerivesFromIdentity) {
  Span s;
  s.name = "round";
  s.job = 12;
  s.sub = 0;
  s.round = 3;
  EXPECT_EQ(s.id(), "round:12.0#3");
  Span phase;
  phase.name = "send";
  phase.round = 2;
  EXPECT_EQ(phase.id(), "send#2");
}

/// The JSON record of `s`'s export line.
obs::Json span_record(const Span& s) {
  std::string line = obs::spans_to_jsonl({s});
  line.pop_back();  // '\n'
  return *obs::Json::parse(line);
}

TEST(Span, JsonRoundTrip) {
  Span s;
  s.name = "inst";
  s.job = 4;
  s.sub = 1;
  s.t0 = 1.5;
  s.t1 = 3.25;
  s.parent = {obs::SpanKind::kJob, 4};
  s.tags = {{"inj_dropped", 1}, {"rounds", 2}};
  const auto back = Span::from_json(span_record(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
  EXPECT_EQ(back->parent.id(), "job:4");
}

TEST(Span, FromJsonRejectsForgedId) {
  Span s;
  s.name = "job";
  s.job = 9;
  obs::Json j = span_record(s);
  j.set("id", "job:8");  // id no longer matches the identity fields
  const auto parsed = Span::from_json(j);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().kind, ParseKind::kIdMismatch);
}

TEST(Span, CanonicalizeIsEmissionOrderIndependent) {
  std::vector<Span> spans;
  for (int job = 2; job >= 0; --job) {
    for (int r = 1; r >= 0; --r) {
      Span s;
      s.name = "round";
      s.job = job;
      s.sub = 0;
      s.round = r;
      s.t0 = r;
      s.t1 = r + 1;
      spans.push_back(s);
    }
  }
  std::vector<Span> shuffled = spans;
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(obs::spans_to_jsonl(spans), obs::spans_to_jsonl(shuffled));
}

/// `value` as the export must write it: `%.17g`, non-finite as null.
std::string rendered(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, value,
                             std::chars_format::general, 17)
                   .ptr};
}

/// The text between `"key":` and the next ',' on `line`.
std::string field_text(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t begin = at + key.size() + 3;
  return line.substr(begin, line.find(',', begin) - begin);
}

// The export renders each distinct instant once per call and copies it
// after; the bytes must still be `%.17g` of every t0/t1, for values a
// cache could confuse: both zeros, subnormals, integers past 2^53,
// non-finite values, repeats, and more distinct values than the cache
// holds, revisited in an order that keeps evicting them.
TEST(SpanExport, DoublesRenderAsToCharsGeneral17) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 3.0, 0.25, 1e17, 1e15, 1e-5, 123456789.0,
      std::ldexp(1.0, 53), std::ldexp(1.0, 53) + 2.0, 9007199254740993.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 0.1 + 0.2, 1.0 / 3.0,
      std::numeric_limits<double>::quiet_NaN(), kInf, -kInf};
  Rng rng(2024);
  while (values.size() < 200) {
    // Random bit patterns (any exponent) and plain virtual times.
    values.push_back(values.size() % 2 == 0
                         ? std::bit_cast<double>(rng.next())
                         : static_cast<double>(rng.below(4000)) * 0.125);
  }
  std::vector<Span> spans;
  for (std::size_t i = 0; i < 3 * values.size(); ++i) {
    Span s;
    s.name = "job";
    s.job = static_cast<std::int64_t>(i);
    s.t0 = values[(i * 7) % values.size()];
    s.t1 = values[i % values.size()];
    spans.push_back(s);
  }
  const std::string jsonl = obs::spans_to_jsonl(spans);
  std::size_t lines = 0;
  for (std::size_t begin = 0; begin < jsonl.size(); ++lines) {
    const std::size_t end = jsonl.find('\n', begin);
    ASSERT_NE(end, std::string::npos);
    const std::string line = jsonl.substr(begin, end - begin);
    begin = end + 1;
    const Span& s = spans[std::stoull(field_text(line, "job"))];
    EXPECT_EQ(field_text(line, "t0"), rendered(s.t0)) << line;
    EXPECT_EQ(field_text(line, "t1"), rendered(s.t1)) << line;
  }
  EXPECT_EQ(lines, spans.size());
}

/// Canonical order as documented, written out independently of the
/// library: (t0, job, sub, lifecycle rank, round), then name, t1, parent
/// and sorted tags. The inputs below carry no NaN and no -0.0, so `<` on
/// the doubles is the library's total order.
bool reference_before(const Span& a, const Span& b) {
  const auto rank = [](const Span& s) {
    return std::find(obs::kSpanNames.begin(), obs::kSpanNames.end(), s.name) -
           obs::kSpanNames.begin();
  };
  const auto tags = [](const Span& s) {
    std::vector<std::pair<std::string_view, std::int64_t>> out(
        s.tags.begin(), s.tags.end());
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto key = [&](const Span& s) {
    return std::tuple(s.t0, s.job, s.sub, rank(s), s.round, s.name, s.t1,
                      s.parent.kind, s.parent.job, s.parent.sub,
                      s.parent.round, tags(s));
  };
  return key(a) < key(b);
}

// Per-shard runs, each shuffled, merge to exactly the canonical order of
// their concatenation. The fields are drawn from small sets so heads tie
// often, duplicate identities differ only in their tails (t1, parent,
// tag order), and some fields lie outside the packed key's range (job
// 2^33, sub 5000, round 70000, job -7), where keys tie and the field
// compare decides.
TEST(SpanMerge, ShuffledShardRunsMergeToCanonicalOrder) {
  const double times[] = {0.0, 0.5, 1.0, 1.5, 2.25};
  const std::int64_t jobs[] = {-7, -1, 0, 1, 2, std::int64_t{1} << 33,
                               (std::int64_t{1} << 33) + 1};
  const int subs[] = {-1, 0, 1, 5000};
  const int rounds[] = {-1, 0, 3, 70000};
  const obs::SpanTagKey keys[] = {"adv", "class", "rounds", "tmpl"};
  Rng rng(99);
  const auto pick = [&rng](const auto& options) {
    return options[rng.below(std::size(options))];
  };
  std::vector<std::vector<Span>> shards(5);  // shard 4 stays empty
  for (int i = 0; i < 3000; ++i) {
    Span s;
    s.name = obs::kSpanNames[rng.below(obs::kSpanNames.size())];
    s.job = pick(jobs);
    s.sub = pick(subs);
    s.round = pick(rounds);
    s.t0 = pick(times);
    s.t1 = s.t0 + pick(times);
    if (rng.chance(0.5)) {
      s.parent = {static_cast<obs::SpanKind>(rng.below(9)), pick(jobs),
                  pick(subs), pick(rounds)};
    }
    for (std::uint64_t k = rng.below(4); k > 0; --k) {
      s.tags.add(pick(keys), static_cast<std::int64_t>(rng.below(3)));
    }
    shards[rng.below(4)].push_back(s);
  }
  std::vector<Span> concat;
  std::vector<std::span<const Span>> runs;
  for (std::vector<Span>& shard : shards) {
    rng.shuffle(shard);
    concat.insert(concat.end(), shard.begin(), shard.end());
    runs.emplace_back(shard);
  }
  const std::vector<Span> merged = obs::merge_canonical(runs);
  std::vector<Span> canonical = concat;
  obs::canonicalize(canonical);
  EXPECT_EQ(merged, canonical);

  std::vector<Span> reference = concat;
  for (Span& s : reference) s.tags.sort();
  std::sort(reference.begin(), reference.end(), reference_before);
  EXPECT_EQ(merged, reference);
  EXPECT_EQ(obs::spans_to_jsonl(concat), obs::spans_to_jsonl(merged));
}

TEST(Span, JsonlRoundTripAndBadLineRejected) {
  Span s;
  s.name = "queue";
  s.job = 1;
  s.t1 = 0.5;
  const std::string jsonl = obs::spans_to_jsonl({s});
  const auto parsed = obs::read_spans_jsonl(jsonl);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ(parsed->front(), s);
  EXPECT_FALSE(obs::read_spans_jsonl("{not json\n").has_value());
}

/// The error kind `read_spans_jsonl` reports for `text`; nullopt when it
/// accepts it.
std::optional<ParseKind> read_error(const std::string& text) {
  const auto parsed = obs::read_spans_jsonl(text);
  if (parsed) return std::nullopt;
  EXPECT_GT(parsed.error().line, 0u) << parsed.error().to_string();
  EXPECT_EQ(parsed.error().to_string().rfind("line ", 0), 0u);
  return parsed.error().kind;
}

TEST(SpanReader, RejectsEachMalformationWithATypedError) {
  using E = ParseKind;
  const std::string good =
      R"({"id":"inst:4.1","name":"inst","job":4,"sub":1,"round":-1,)"
      R"("t0":1.5,"t1":3.25,"parent":"job:4",)"
      R"("tags":{"inj_dropped":1,"rounds":2}})"
      "\n";
  ASSERT_EQ(read_error(good), std::nullopt);
  const auto with = [&good](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  // Unknown span name, its id spelled to match.
  EXPECT_EQ(read_error(with(R"("id":"inst:4.1","name":"inst")",
                            R"("id":"task:4.1","name":"task")")),
            E::kUnknownName);
  // Nine tags, every key valid: more than a span holds.
  EXPECT_EQ(read_error(with(R"({"inj_dropped":1,"rounds":2})",
                            R"({"adv":0,"class":1,"cond":2,"deadline":3,)"
                            R"("dropped":4,"inj_delayed":5,"inj_dropped":6,)"
                            R"("nodes":7,"rounds":8})")),
            E::kTooManyTags);
  // Tag keys outside the vocabulary.
  EXPECT_EQ(read_error(with(R"("inj_dropped")", R"("inj_lost")")),
            E::kUnknownTagKey);
  EXPECT_EQ(read_error(with(R"("rounds")", R"("rule8")")), E::kUnknownTagKey);
  // id and parent mismatches.
  EXPECT_EQ(read_error(with(R"("id":"inst:4.1")", R"("id":"inst:4.2")")),
            E::kIdMismatch);
  EXPECT_EQ(read_error(with(R"("parent":"job:4")", R"("parent":"job:04")")),
            E::kBadParent);
  EXPECT_EQ(read_error(with(R"("parent":"job:4")", R"("parent":"task:4")")),
            E::kBadParent);
  // Mistyped or out-of-range fields.
  EXPECT_EQ(read_error(with(R"("sub":1)", R"("sub":4294967297)")),
            E::kBadValue);
  EXPECT_EQ(read_error(with(R"("t0":1.5)", R"("t0":"1.5")")), E::kBadValue);
  EXPECT_EQ(read_error(with(R"("rounds":2)", R"("rounds":2.5)")),
            E::kBadValue);
  // Well-formed spans, but not the canonical bytes or order.
  EXPECT_EQ(read_error(with(R"("t0":1.5)", R"("t0":1.50)")),
            E::kNotCanonical);
  EXPECT_EQ(read_error(with(R"({"id")", R"({ "id")")), E::kNotCanonical);
  EXPECT_EQ(read_error(with(R"("inj_dropped":1,"rounds":2)",
                            R"("rounds":2,"inj_dropped":1)")),
            E::kNotCanonical);
  EXPECT_EQ(read_error(good.substr(0, good.size() - 1)), E::kNotCanonical);
  const std::string later = with(R"("t0":1.5)", R"("t0":2)");
  EXPECT_EQ(read_error(good + later), std::nullopt);
  EXPECT_EQ(read_error(later + good), E::kNotCanonical);
  // Not JSON at all, blank lines included.
  EXPECT_EQ(read_error("{not json\n"), E::kSyntax);
  EXPECT_EQ(read_error(good + "\n"), E::kSyntax);
}

#ifndef DA_METRICS_DISABLED

TEST(SpanSink, RendersPhaseTriplesPerRound) {
  SpanSink sink;
  sink.note_send(0, 4);
  sink.note_deliver(0, 3);  // one message dropped
  sink.note_resolve(0, 4);
  sink.note_send(1, 12);
  sink.note_deliver(1, 12);
  sink.note_resolve(1, 4);
  sink.note_done(2);
  const std::vector<Span> spans = sink.round_spans();
  ASSERT_EQ(spans.size(), 7u);  // 3 per round + decide
  EXPECT_EQ(spans[0].id(), "send#0");
  EXPECT_EQ(spans[1].id(), "deliver#0");
  EXPECT_EQ(spans[1].parent.id(), "send#0");
  EXPECT_EQ(spans[1].tags.find("dropped"), 1);
  EXPECT_EQ(spans[2].id(), "resolve#0");
  EXPECT_EQ(spans[2].parent.id(), "deliver#0");
  EXPECT_EQ(spans.back().name, "decide");
  EXPECT_DOUBLE_EQ(spans.back().t0, 2.0);
}

// The three runtimes must export byte-identical phase spans for the same
// scenario — the span analogue of the cross-runtime decision contract.
TEST(SpanSink, CrossRuntimeByteIdentical) {
  const Config config{.n = 5, .m = 1, .u = 2};
  const ScenarioSpec spec{
      .config = config, .sender = 0, .sender_value = Value::of(17),
      .faulty = {2, 4}};

  const auto run_sim = [&] {
    SpanSink sink;
    auto adversary = faults::constant_liar(Value::of(5));
    sim::RunOptions options;
    options.faulty = spec.faulty;
    options.adversary = adversary.get();
    options.spans = &sink;
    sim::RoundEngine engine(
        core::make_byz_processes(config, spec.sender, spec.sender_value),
        std::move(options));
    (void)engine.run();
    return obs::spans_to_jsonl(sink.round_spans());
  };
  const auto run_threaded = [&] {
    SpanSink sink;
    auto adversary = faults::constant_liar(Value::of(5));
    sim::RunOptions options;
    options.faulty = spec.faulty;
    options.adversary = adversary.get();
    options.spans = &sink;
    rt::ThreadedRunner runner(
        core::make_byz_processes(config, spec.sender, spec.sender_value),
        std::move(options));
    (void)runner.run();
    return obs::spans_to_jsonl(sink.round_spans());
  };
  const auto run_event = [&] {
    SpanSink sink;
    auto adversary = faults::constant_liar(Value::of(5));
    sim::RunOptions options;
    options.faulty = spec.faulty;
    options.adversary = adversary.get();
    options.spans = &sink;
    event::EventRunner runner(
        core::make_byz_processes(config, spec.sender, spec.sender_value),
        std::move(options), event::TimingModel{},
        event::perfect_clocks(config.n));
    (void)runner.run();
    return obs::spans_to_jsonl(sink.round_spans());
  };

  const std::string sim_spans = run_sim();
  EXPECT_FALSE(sim_spans.empty());
  EXPECT_EQ(sim_spans, run_threaded());
  EXPECT_EQ(sim_spans, run_event());
}

#endif  // DA_METRICS_DISABLED

// ------------------------------------------------------------ service --

service::ServiceConfig obs_service_config(int jobs) {
  service::ServiceConfig config;
  config.arrivals = service::ArrivalSpec::poisson(12.0);
  config.offered = 120;
  config.cap = 12;
  config.seed = 7;
  config.jobs = jobs;
  config.record_spans = true;
  config.sample_every = 3.0;
  auto plan = inject::FaultPlan::parse(
      "seed 9\ndrop from=2 to=1 round=1\ndelay from=1 to=*\n");
  config.fault_plan = *plan;
  config.inject_every = 2;
  return config;
}

TEST(ServiceObs, SpansAndSketchesIdenticalAcrossJobs) {
  const service::ServiceResult base =
      service::run_service(obs_service_config(1));
  for (int jobs : {2, 4}) {
    const service::ServiceResult other =
        service::run_service(obs_service_config(jobs));
    EXPECT_EQ(base.digest(), other.digest()) << jobs;
    EXPECT_EQ(obs::spans_to_jsonl(base.spans),
              obs::spans_to_jsonl(other.spans))
        << jobs;
    EXPECT_EQ(base.latency_sketch.serialize(),
              other.latency_sketch.serialize())
        << jobs;
    EXPECT_EQ(base.queue_sketch.serialize(), other.queue_sketch.serialize())
        << jobs;
    ASSERT_EQ(base.samples.size(), other.samples.size()) << jobs;
    for (std::size_t i = 0; i < base.samples.size(); ++i) {
      EXPECT_EQ(base.samples[i].time, other.samples[i].time);
      EXPECT_EQ(base.samples[i].active, other.samples[i].active);
      EXPECT_EQ(base.samples[i].queued, other.samples[i].queued);
      EXPECT_EQ(base.samples[i].completed, other.samples[i].completed);
      EXPECT_EQ(base.samples[i].latency_p50, other.samples[i].latency_p50);
      EXPECT_EQ(base.samples[i].latency_p99, other.samples[i].latency_p99);
    }
  }
}

TEST(ServiceObs, WarmRerunExportsIdenticalSpans) {
  service::AgreementService svc(obs_service_config(2));
  const service::ServiceResult cold = svc.run();
  const service::ServiceResult warm = svc.run();  // recycled slots
  EXPECT_EQ(cold.digest(), warm.digest());
  EXPECT_EQ(obs::spans_to_jsonl(cold.spans), obs::spans_to_jsonl(warm.spans));
  EXPECT_EQ(cold.latency_sketch.serialize(), warm.latency_sketch.serialize());
}

TEST(ServiceObs, RecordingSpansDoesNotPerturbTheRun) {
  service::ServiceConfig with = obs_service_config(1);
  service::ServiceConfig without = with;
  without.record_spans = false;
  without.sample_every = 0.0;
  const service::ServiceResult a = service::run_service(with);
  const service::ServiceResult b = service::run_service(without);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.artifact(), b.artifact());
  EXPECT_TRUE(b.spans.empty());
  EXPECT_TRUE(b.samples.empty());
  // The always-on sketches are independent of the span switch.
  EXPECT_EQ(a.latency_sketch.serialize(), b.latency_sketch.serialize());
}

TEST(ServiceObs, RecordingRejectsAFaultPlanWiderThanASpan) {
  service::ServiceConfig config = obs_service_config(1);
  // An inst span could carry rounds, all five inj_* tallies and three
  // rule<k> hits: nine tags, one more than a span holds.
  config.fault_plan = *inject::FaultPlan::parse(
      "seed 1\ndrop from=1 to=2\ndup from=2 to=*\ndelay from=3 to=*\n"
      "crash node=1 down=2\n");
  EXPECT_THROW(service::AgreementService{config}, service::TooManySpanTags);
  config.record_spans = false;  // the bound guards recording only
  EXPECT_NO_THROW(service::AgreementService{config});
}

TEST(ServiceObs, SpanTreeIsWellFormed) {
  const service::ServiceResult result =
      service::run_service(obs_service_config(1));
#ifndef DA_METRICS_DISABLED
  ASSERT_FALSE(result.spans.empty());
  // Unique ids, resolvable parents, child windows inside parents.
  std::map<std::string, const Span*> by_id;
  for (const Span& s : result.spans) {
    EXPECT_TRUE(by_id.emplace(s.id(), &s).second) << s.id();
    EXPECT_LE(s.t0, s.t1) << s.id();
  }
  bool saw_rule_tag = false;
  for (const Span& s : result.spans) {
    if (!s.parent.empty()) {
      const auto it = by_id.find(s.parent.id());
      ASSERT_NE(it, by_id.end()) << s.parent.id();
      EXPECT_GE(s.t0, it->second->t0 - 1e-9) << s.id();
      EXPECT_LE(s.t1, it->second->t1 + 1e-9) << s.id();
    }
    for (const auto& [key, value] : s.tags) {
      if (key.rfind("rule", 0) == 0) saw_rule_tag = true;
    }
  }
  // The fault plan left its fingerprints on at least one round span.
  EXPECT_TRUE(saw_rule_tag);
  // Canonical order: re-canonicalizing is a no-op.
  std::vector<Span> sorted = result.spans;
  obs::canonicalize(sorted);
  EXPECT_EQ(sorted, result.spans);
#else
  // Kill switch: span recording compiles to nothing.
  EXPECT_TRUE(result.spans.empty());
#endif
}

// ------------------------------------------------------- export pin --

// The overloaded, fault-injected 4-shard front-end stream the `frontend`
// benchmark workload runs, pinned by the length and SHA-256 of its span
// export. The bytes were recorded before spans became plain data; the
// export must not change by a byte, for any worker count.
[[maybe_unused]] service::FrontendConfig pinned_frontend_config(int jobs) {
  service::FrontendConfig config;
  config.shards = 4;
  config.route = service::RoutePolicy::kHashJobId;
  service::ServiceConfig& svc = config.service;
  svc.arrivals = service::ArrivalSpec::poisson(40.0);
  svc.offered = 1500;
  svc.cap = 24;
  svc.queue_cap = 32;
  svc.policy = service::OverloadPolicy::kShedOldest;
  svc.seed = 7;
  svc.jobs = jobs;
  svc.mix = service::default_mix();
  for (auto& tmpl : svc.mix) {
    if (tmpl.admission == service::AdmissionClass::kLow) tmpl.deadline = 3.0;
  }
  inject::FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back(
      inject::LinkRule{kNoNode, 2, 1, inject::FaultKind::kDuplicate, 2});
  plan.rules.push_back(
      inject::LinkRule{1, kNoNode, 0, inject::FaultKind::kDelay, 2});
  plan.rates.duplicate = 0.05;
  plan.rates.delay = 0.10;
  svc.fault_plan = plan;
  svc.inject_every = 3;
  svc.record_spans = true;
  svc.sample_every = 2.0;
  return config;
}

TEST(SpanExport, Sha256KnownAnswers) {
  EXPECT_EQ(testing::sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(testing::sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(testing::sha256_hex(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(SpanExport, FrontendStreamBytesPinned) {
#ifndef DA_METRICS_DISABLED
  for (int jobs : {1, 2}) {
    const service::FrontendResult result =
        service::run_frontend(pinned_frontend_config(jobs));
    const std::string jsonl = obs::spans_to_jsonl(result.spans);
    EXPECT_EQ(result.spans.size(), 12000u) << jobs;
    EXPECT_EQ(jsonl.size(), 1911511u) << jobs;
    EXPECT_EQ(
        testing::sha256_hex(jsonl),
        "44e17dae98d358d50b17e9612c85a4ec95890e7a519fb6c60756254ffa64702f")
        << jobs;
  }
#endif
}

// ------------------------------------------------- injection rule hits --

TEST(InjectionNetworkObs, RuleHitsAttributeDecisions) {
  auto plan = inject::FaultPlan::parse(
      "seed 3\ndrop from=1 to=2 round=0\ndup from=3 to=* copies=2\n");
  ASSERT_TRUE(plan.has_value());
  inject::InjectionNetwork net(*plan);
  ASSERT_EQ(net.stats().rule_hits.size(), 2u);

  sim::Message hit_drop{.from = 1, .to = 2, .round = 0};
  sim::Message hit_dup{.from = 3, .to = 0, .round = 1};
  sim::Message miss{.from = 0, .to = 1, .round = 0};
  (void)net.transit_fanout(hit_drop);
  (void)net.transit_fanout(hit_dup);
  (void)net.transit_fanout(miss);
  EXPECT_EQ(net.stats().rule_hits[0], 1u);
  EXPECT_EQ(net.stats().rule_hits[1], 1u);
  EXPECT_EQ(net.stats().examined, 3u);
  EXPECT_EQ(net.stats().dropped, 1u);
  EXPECT_EQ(net.stats().duplicated, 1u);

  net.reset_stats();
  EXPECT_EQ(net.stats().examined, 0u);
  ASSERT_EQ(net.stats().rule_hits.size(), 2u);
  EXPECT_EQ(net.stats().rule_hits[0], 0u);

  // Reseeding changes only the seed-dependent draws, not the rule table.
  net.reseed(99);
  (void)net.transit_fanout(hit_drop);
  EXPECT_EQ(net.stats().rule_hits[0], 1u);
}

// --------------------------------------------------------- exposition --

TEST(Exposition, RendersAllMetricKinds) {
  obs::MetricsSnapshot snap;
  snap.counters["sim.messages_sent"] = 42;
  snap.gauges["service.cap"] = 256.0;
  QuantileSketch sketch;
  sketch.record(1.0);
  sketch.record(2.0);
  sketch.record(3.0);
  snap.quantiles["service.decision_latency"] = sketch;

  const std::string text = obs::to_exposition(snap);
  EXPECT_NE(text.find("# TYPE da_sim_messages_sent counter"),
            std::string::npos);
  EXPECT_NE(text.find("da_sim_messages_sent 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE da_service_cap gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE da_service_decision_latency summary"),
            std::string::npos);
  EXPECT_NE(text.find("da_service_decision_latency{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("da_service_decision_latency_count 3"),
            std::string::npos);
  // Deterministic output: rendering twice is byte-identical.
  EXPECT_EQ(text, obs::to_exposition(snap));
}

}  // namespace
}  // namespace da
