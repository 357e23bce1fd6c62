// Experiment E9 — protocol costs (google-benchmark suite).
//
// The paper gives only asymptotics ("no attempt is made here to present an
// efficient algorithm"): BYZ(m,m) sends Theta(N^{m+1}) messages over m+1
// rounds. This suite measures wall time and message volume of:
//   - BYZ(m,m) on the deterministic simulator, across N and m;
//   - BYZ(m,m) on the threaded runtime (the round engine with each
//     round's nodes stepped as one fork-join round on a long-lived
//     one-worker pool plus the calling thread);
//   - that fork-join round by itself, over empty chunks;
//   - Lamport OM(m) over the same substrate (identical message pattern,
//     cheaper resolve);
//   - Crusader (2 rounds regardless of m);
//   - the VOTE primitive and EIG-tree resolution in isolation;
//   - one warm round-engine execution (restore, then dispatch/process
//     rounds), the service's per-instance cycle;
//   - the parallel scenario-sweep engine over the adversary-complete
//     behaviour space (`--jobs N` adds an N-worker variant next to the
//     1-worker baseline, so the report shows the scaling directly).

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "faults/adversaries.hpp"
#include "faults/behavior_search.hpp"
#include "faults/search.hpp"
#include "inject/fault_plan.hpp"
#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "protocols/common/eig.hpp"
#include "protocols/common/vote.hpp"
#include "protocols/crusader/crusader.hpp"
#include "protocols/ic/interactive_consistency.hpp"
#include "service/frontend.hpp"
#include "service/service.hpp"
#include "sim/round_engine.hpp"
#include "sweep/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

da::ScenarioSpec make_spec(const da::Config& config, int f) {
  da::ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = da::Value::of(17);
  for (int i = 0; i < f; ++i) spec.faulty.push_back(i + 1);
  return spec;
}

void BM_ByzSimulator(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const da::Config config{.n = n, .m = m, .u = n - 2 * m - 1};
  const da::DegradableAgreement protocol(config);
  const auto spec = make_spec(config, m);
  auto adversary = da::faults::equivocator(da::Value::of(17),
                                           da::Value::of(5));
  std::size_t messages = 0;
  for (auto _ : state) {
    const auto outcome = protocol.run(spec, adversary.get());
    messages = outcome.messages_sent;
    benchmark::DoNotOptimize(outcome.decisions);
  }
  state.counters["messages"] = static_cast<double>(messages);
  state.counters["rounds"] = protocol.rounds();
}
BENCHMARK(BM_ByzSimulator)
    ->Args({4, 1})
    ->Args({7, 1})
    ->Args({10, 1})
    ->Args({16, 1})
    ->Args({7, 2})
    ->Args({10, 2})
    ->Args({13, 2})
    ->Args({10, 3})
    ->Unit(benchmark::kMicrosecond);

void BM_ByzThreaded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const da::Config config{.n = n, .m = m, .u = n - 2 * m - 1};
  const da::DegradableAgreement protocol(config);
  const auto spec = make_spec(config, m);
  auto adversary = da::faults::equivocator(da::Value::of(17),
                                           da::Value::of(5));
  for (auto _ : state) {
    const auto outcome = protocol.run_threaded(spec, adversary.get());
    benchmark::DoNotOptimize(outcome.decisions);
  }
}
// Pool rows run on two threads, so they report wall time and the whole
// process's CPU time, not the main thread's.
BENCHMARK(BM_ByzThreaded)
    ->Args({4, 1})
    ->Args({7, 1})
    ->Args({7, 2})
    ->Args({10, 2})
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

// The threaded runtime's per-round overhead: one fork-join round of
// `chunks` empty chunks on a pool of `chunks - 1` workers plus the caller.
void BM_PoolRound(benchmark::State& state) {
  const auto chunks = static_cast<std::size_t>(state.range(0));
  da::sweep::ThreadPool pool(static_cast<int>(chunks) - 1);
  for (auto _ : state) {
    pool.fork_join(chunks, [](std::size_t c) { benchmark::DoNotOptimize(c); });
  }
}
BENCHMARK(BM_PoolRound)
    ->Arg(2)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

void BM_LamportOM(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const da::LamportAgreement protocol(n, m);
  const da::Config config{.n = n, .m = m, .u = m};
  const auto spec = make_spec(config, m);
  auto adversary = da::faults::equivocator(da::Value::of(17),
                                           da::Value::of(5));
  for (auto _ : state) {
    const auto outcome = protocol.run(spec, adversary.get());
    benchmark::DoNotOptimize(outcome.decisions);
  }
}
BENCHMARK(BM_LamportOM)
    ->Args({4, 1})
    ->Args({7, 2})
    ->Args({10, 2})
    ->Args({10, 3})
    ->Unit(benchmark::kMicrosecond);

void BM_Crusader(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  auto adversary = da::faults::equivocator(da::Value::of(17),
                                           da::Value::of(5));
  da::sim::RunOptions options;
  for (int i = 0; i < m; ++i) options.faulty.push_back(i + 1);
  options.adversary = adversary.get();
  for (auto _ : state) {
    da::sim::RoundEngine runner(
        da::protocols::crusader::make_crusader_processes(n, m, 0,
                                                         da::Value::of(17)),
        options);
    const auto result = runner.run();
    benchmark::DoNotOptimize(result.decisions);
  }
}
BENCHMARK(BM_Crusader)
    ->Args({4, 1})
    ->Args({10, 3})
    ->Args({16, 5})
    ->Unit(benchmark::kMicrosecond);

void BM_Vote(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  da::Rng rng(9);
  std::vector<da::Value> values;
  for (std::size_t i = 0; i < size; ++i) {
    values.push_back(da::Value::of(rng.range(0, 7)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(da::protocols::vote(values, size / 2));
  }
}
BENCHMARK(BM_Vote)->Arg(8)->Arg(64)->Arg(512);

void BM_ThresholdVoterKofN(benchmark::State& state) {
  const std::size_t channels = static_cast<std::size_t>(state.range(0));
  std::vector<da::Value> outputs(channels, da::Value::of(21));
  outputs.back() = da::Value::def();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        da::protocols::k_of_n_vote(outputs, channels - 1));
  }
}
BENCHMARK(BM_ThresholdVoterKofN)->Arg(4)->Arg(16)->Arg(64);

void fill_subtree(da::protocols::EigTree& tree, const da::Path& path,
                  const std::vector<da::NodeId>& nodes, int depth,
                  da::Rng& rng) {
  tree.set(path, da::Value::of(rng.range(0, 3)));
  if (static_cast<int>(path.size()) == depth) return;
  for (da::NodeId j : nodes) {
    if (!path.contains(j)) {
      fill_subtree(tree, path.extended(j), nodes, depth, rng);
    }
  }
}

// Isolated resolve cost on a fully populated arena (every slot written,
// the worst case): the bottom-up pass the EIG protocols run once per node
// at the end of every execution.
void BM_EigResolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  std::vector<da::NodeId> nodes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) nodes[static_cast<std::size_t>(i)] = i;
  da::protocols::EigTree tree(/*self=*/1, /*sender=*/0, nodes, depth);
  da::Rng rng(11);
  da::Path root;
  root.push_back(0);
  fill_subtree(tree, root, nodes, depth, rng);
  const da::protocols::ByzResolver rule(depth - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.resolve(rule));
  }
  state.counters["slots"] = static_cast<double>(tree.layout().size());
}
BENCHMARK(BM_EigResolve)
    ->Args({7, 3})
    ->Args({10, 4})
    ->Unit(benchmark::kMicrosecond);

// One warm round-engine execution of BYZ(7,2,2) under `equivocator`, as
// the service steps an admitted slot: restore the round-0 pre-dispatch
// snapshot, then dispatch_pending / process_round until done. Dispatch
// (routing, the adversary's `corrupt`) plus each receiver's admit walk,
// store and relay fan-out, without the final resolve.
void BM_RoundEngineRound(benchmark::State& state) {
  const da::Config config{.n = 7, .m = 2, .u = 2};
  const auto spec = make_spec(config, config.m);
  auto adversary = da::faults::equivocator(da::Value::of(17),
                                           da::Value::of(5));
  da::sim::RunOptions options;
  options.faulty = spec.faulty;
  options.adversary = adversary.get();
  da::sim::RoundEngine engine(
      da::core::make_byz_processes(config, spec.sender, spec.sender_value),
      options);
  engine.begin();
  const da::sim::RoundEngine::Snapshot start = engine.snapshot();
  da::sim::RunResult result;
  for (auto _ : state) {
    engine.restore(start);
    while (!engine.done()) {
      engine.dispatch_pending();
      engine.process_round();
    }
    benchmark::DoNotOptimize(engine);
    benchmark::ClobberMemory();
  }
  engine.finish_into(result);
  state.counters["messages"] = static_cast<double>(result.messages_sent);
}
BENCHMARK(BM_RoundEngineRound)->Unit(benchmark::kMicrosecond);

// The adversary-complete behaviour sweep at the Theorem 2 boundary
// (n = 5, 1/2-degradable), on `state.range(0)` sweep workers. Registered
// for 1 worker and for the `--jobs` value, so one run reports the
// speedup. Counters: canonical executions (thread-count independent) and
// executions actually performed (includes speculative work).
void BM_BehaviourSweep(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const da::Config config{.n = 5, .m = 1, .u = 2};
  da::sweep::SweepOptions options;
  options.jobs = jobs;
  da::sweep::SweepStats stats;
  for (auto _ : state) {
    const auto violation =
        da::faults::exhaustive_behavior_search(
            config, da::faults::BehaviorSearchOptions{}, options, &stats);
    benchmark::DoNotOptimize(violation);
  }
  state.counters["executions"] = static_cast<double>(stats.executions);
  state.counters["performed"] = static_cast<double>(stats.performed);
  state.counters["shards"] = static_cast<double>(stats.shards);
}

// The adversary-complete behaviour walk (checkpoint/fork engine, receiver
// orbits and subset quotient), single worker, on *clean* configurations
// so it scans the whole space: (4,1,1), the Theorem 2 boundary (5,1,2)
// and (6,1,2), where the subset quotient walks 4 of 21 nonempty segments.
// range(0) = n, u = min(n - 3, 2).
void BM_BehaviorSearch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const da::Config config{.n = n, .m = 1, .u = std::min(n - 3, 2)};
  da::sweep::SweepOptions options;
  options.jobs = 1;
  da::sweep::SweepStats stats;
  for (auto _ : state) {
    const auto violation = da::faults::exhaustive_behavior_search(
        config, da::faults::BehaviorSearchOptions{}, options, &stats);
    benchmark::DoNotOptimize(violation);
  }
  state.counters["executions"] = static_cast<double>(stats.executions);
  state.counters["weighted"] = static_cast<double>(stats.weighted_executions);
}
BENCHMARK(BM_BehaviorSearch)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

// The scratch reference the walk is tested against: `behavior_at` on
// every ordinal of the full space of (4,1,1) and (5,1,2), in order, one
// thread, no quotient and no fork. BM_BehaviorSearch/<n> over this row
// is what the quotient walk and the fork engine buy together.
// range(0) = n, u = n - 3.
void BM_BehaviorReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const da::Config config{.n = n, .m = 1, .u = n - 3};
  const std::uint64_t space = da::faults::behavior_search_space(config);
  std::uint64_t violations = 0;
  for (auto _ : state) {
    violations = 0;
    for (std::uint64_t ordinal = 0; ordinal < space; ++ordinal) {
      if (da::faults::behavior_at(config, -1, ordinal).has_value()) {
        ++violations;
      }
    }
    benchmark::DoNotOptimize(violations);
  }
  state.counters["executions"] = static_cast<double>(space);
  state.counters["violations"] = static_cast<double>(violations);
}
BENCHMARK(BM_BehaviorReference)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

// The adversary-family search, whose checkpoint is the honest round-0
// prefix shared across the family (n = 7 feasible config, no violation,
// so every scenario runs the whole family).
void BM_SearchViolation(benchmark::State& state) {
  const da::Config config{.n = 7, .m = 1, .u = 4};
  da::faults::SearchOptions search;
  search.seed = 7;
  da::sweep::SweepOptions options;
  options.jobs = 1;
  da::sweep::SweepStats stats;
  for (auto _ : state) {
    const auto violation =
        da::faults::search_violation(config, search, options, &stats);
    benchmark::DoNotOptimize(violation);
  }
  state.counters["executions"] = static_cast<double>(stats.executions);
}
BENCHMARK(BM_SearchViolation)->Unit(benchmark::kMillisecond);

// The adversary-family search on a mid-size feasible config, same split.
void BM_FamilySearchSweep(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const da::Config config{.n = 7, .m = 1, .u = 4};
  da::faults::SearchOptions search;
  search.seed = 7;
  da::sweep::SweepOptions options;
  options.jobs = jobs;
  da::sweep::SweepStats stats;
  for (auto _ : state) {
    const auto violation =
        da::faults::search_violation(config, search, options, &stats);
    benchmark::DoNotOptimize(violation);
  }
  state.counters["executions"] = static_cast<double>(stats.executions);
  state.counters["shards"] = static_cast<double>(stats.shards);
}

// The agreement service at scale: an open-loop Poisson storm against a
// wide cap under the block policy, so thousands of instances are active
// at once (the acceptance floor is peak_active >= 1000). The service is
// constructed once and re-run per iteration, so after the first iteration
// every admission recycles a warm slot — this measures the steady state.
// range(0) = worker threads draining each round batch.
void BM_ServiceThroughput(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  da::service::ServiceConfig config;
  config.arrivals = da::service::ArrivalSpec::poisson(400.0);
  config.offered = 3000;
  config.cap = 2048;
  config.policy = da::service::OverloadPolicy::kBlock;
  config.seed = 7;
  config.jobs = jobs;
  da::service::AgreementService svc(config);
  da::service::ServiceResult result;
  double total_completed = 0.0;
  for (auto _ : state) {
    result = svc.run();
    total_completed += static_cast<double>(result.completed);
    benchmark::DoNotOptimize(result.records.data());
  }
  state.counters["ips"] =
      benchmark::Counter(total_completed, benchmark::Counter::kIsRate);
  state.counters["peak_active"] = static_cast<double>(result.peak_active);
  state.counters["p50"] = result.latency_quantile(0.50);
  state.counters["p99"] = result.latency_quantile(0.99);
  state.counters["slot_reuse"] = static_cast<double>(svc.slot_reuses());
}

// Decision latency per arrival model at a moderate load the cap can
// absorb: p50/p99 in virtual time units. range(0) = ArrivalKind.
void BM_ServiceLatency(benchmark::State& state) {
  const auto kind = static_cast<da::service::ArrivalKind>(state.range(0));
  da::service::ServiceConfig config;
  switch (kind) {
    case da::service::ArrivalKind::kPoisson:
      config.arrivals = da::service::ArrivalSpec::poisson(100.0);
      break;
    case da::service::ArrivalKind::kBursty:
      config.arrivals = da::service::ArrivalSpec::bursty(100.0);
      break;
    case da::service::ArrivalKind::kPareto:
      config.arrivals = da::service::ArrivalSpec::pareto(100.0);
      break;
  }
  config.offered = 2000;
  config.cap = 512;
  config.policy = da::service::OverloadPolicy::kBlock;
  config.seed = 7;
  da::service::AgreementService svc(config);
  da::service::ServiceResult result;
  for (auto _ : state) {
    result = svc.run();
    benchmark::DoNotOptimize(result.records.data());
  }
  state.SetLabel(da::service::to_string(kind));
  state.counters["p50"] = result.latency_quantile(0.50);
  state.counters["p99"] = result.latency_quantile(0.99);
  state.counters["peak_active"] = static_cast<double>(result.peak_active);
}
BENCHMARK(BM_ServiceLatency)
    ->Arg(static_cast<int>(da::service::ArrivalKind::kPoisson))
    ->Arg(static_cast<int>(da::service::ArrivalKind::kBursty))
    ->Arg(static_cast<int>(da::service::ArrivalKind::kPareto))
    ->Unit(benchmark::kMillisecond);

// Telemetry overhead: the identical service run with the observability
// layer quiet (range(0)=0) and recording (range(0)=1: causal spans plus
// periodic time-series samples). Both rows run the same protocol work —
// recording never perturbs admission or rounds (identical p99 counter).
// The adjacent-row delta prices the opt-in span/sample recording; the
// always-on registry is priced by BM_CounterAdd, BM_QuantileRecord and
// BM_ScopedTimer. docs/OBSERVABILITY.md cites these rows; BM_SpanRecord and
// BM_SpansToJsonl below price the recording and export layers on their
// own.
void BM_ServiceTelemetry(benchmark::State& state) {
  const bool record = state.range(0) != 0;
  da::service::ServiceConfig config;
  config.arrivals = da::service::ArrivalSpec::poisson(100.0);
  config.offered = 2000;
  config.cap = 512;
  config.policy = da::service::OverloadPolicy::kBlock;
  config.seed = 7;
  if (record) {
    config.record_spans = true;
    config.sample_every = 4.0;
  }
  da::service::AgreementService svc(config);
  da::service::ServiceResult result;
  for (auto _ : state) {
    result = svc.run();
    benchmark::DoNotOptimize(result.records.data());
  }
  state.SetLabel(record ? "recording" : "quiet");
  state.counters["spans"] = static_cast<double>(result.spans.size());
  state.counters["samples"] = static_cast<double>(result.samples.size());
  state.counters["p99"] = result.latency_quantile(0.99);
}
BENCHMARK(BM_ServiceTelemetry)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The always-on registry's three operations, 1000 per iteration (so the
// ms rows read as us per operation) on one thread, with a MetricsScope
// open as around a protocol execution: a counter add and a quantile
// record each write the thread-local sink (no atomic, no lock); a
// ScopedTimer reads the steady clock twice and records the difference.
// A run's registry event counts times these rows price the layer
// (docs/OBSERVABILITY.md "Overhead budget").
constexpr int kRegistryBatch = 1000;

void BM_CounterAdd(benchmark::State& state) {
  static const da::obs::Counter counter("bench.counter_add");
  const da::obs::MetricsScope scope;
  for (auto _ : state) {
    for (int i = 0; i < kRegistryBatch; ++i) counter.add();
  }
  state.SetItemsProcessed(state.iterations() * kRegistryBatch);
}
BENCHMARK(BM_CounterAdd);

void BM_QuantileRecord(benchmark::State& state) {
  static const da::obs::Quantile quantile("bench.quantile_record");
  // Samples spread over many sketch buckets, as latencies are.
  std::array<double, 256> samples{};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = 0.001 * static_cast<double>(1 + i * i);
  }
  const da::obs::MetricsScope scope;
  for (auto _ : state) {
    for (int i = 0; i < kRegistryBatch; ++i) quantile.record(samples[i & 255]);
  }
  state.SetItemsProcessed(state.iterations() * kRegistryBatch);
}
BENCHMARK(BM_QuantileRecord);

void BM_ScopedTimer(benchmark::State& state) {
  static const da::obs::Quantile quantile("bench.scoped_timer_ms");
  const da::obs::MetricsScope scope;
  for (auto _ : state) {
    for (int i = 0; i < kRegistryBatch; ++i) {
      const da::obs::ScopedTimer timer(quantile);
    }
  }
  state.SetItemsProcessed(state.iterations() * kRegistryBatch);
}
BENCHMARK(BM_ScopedTimer);

// Span recording, the lowest observability rung: append one round span —
// identity, window and range(0) tags, the service's injected-round shape
// at 3 and its widest inst span at 6 — to a warm span log, as the service
// records. An iteration records kBatch spans.
void BM_SpanRecord(benchmark::State& state) {
  constexpr std::int64_t kBatch = 4096;
  const int tags = static_cast<int>(state.range(0));
  const da::obs::SpanTagKey keys[] = {"inj_delayed", "inj_duplicated",
                                      "inj_examined", "rounds",
                                      "rule0",       "rule1"};
  da::obs::SpanLog log;
  for (auto _ : state) {
    log.clear();
    for (std::int64_t i = 0; i < kBatch; ++i) {
      const double t0 = static_cast<double>(i) * 0.25;
      log.add({da::obs::SpanKind::kRound, i, 0, static_cast<int>(i & 3)}, t0,
              t0 + 1.0);
      for (int k = 0; k < tags; ++k) log.tag(keys[k], i + k);
    }
    benchmark::DoNotOptimize(log);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SpanRecord)->Arg(0)->Arg(3)->Arg(6);

// One overloaded, fault-injected 4-shard front-end stream recording
// spans (the perfbench `frontend` workload's shape, seed 7): ~12k spans.
da::service::FrontendConfig span_stream_config() {
  da::service::FrontendConfig config;
  config.shards = 4;
  config.route = da::service::RoutePolicy::kHashJobId;
  da::service::ServiceConfig& svc = config.service;
  svc.arrivals = da::service::ArrivalSpec::poisson(40.0);
  svc.offered = 1500;
  svc.cap = 24;
  svc.queue_cap = 32;
  svc.policy = da::service::OverloadPolicy::kShedOldest;
  svc.seed = 7;
  svc.mix = da::service::default_mix();
  for (auto& tmpl : svc.mix) {
    if (tmpl.admission == da::service::AdmissionClass::kLow) {
      tmpl.deadline = 3.0;
    }
  }
  svc.fault_plan.seed = 7;
  svc.fault_plan.rules.push_back(da::inject::LinkRule{
      da::kNoNode, 2, 1, da::inject::FaultKind::kDuplicate, 2});
  svc.fault_plan.rules.push_back(da::inject::LinkRule{
      1, da::kNoNode, 0, da::inject::FaultKind::kDelay, 2});
  svc.fault_plan.rates.duplicate = 0.05;
  svc.fault_plan.rates.delay = 0.10;
  svc.inject_every = 3;
  svc.record_spans = true;
  return config;
}

// Span export: `spans_to_jsonl` of the span stream above, the run's
// canonical set, each line written straight from its record. A set is
// canonical by construction, so no input needs merging first; the
// argument 0 only keeps the row's name.
void BM_SpansToJsonl(benchmark::State& state) {
  const da::obs::SpanSet spans =
      da::service::run_frontend(span_stream_config()).spans;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string out = da::obs::spans_to_jsonl(spans);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.counters["spans"] = static_cast<double>(spans.size());
}
BENCHMARK(BM_SpansToJsonl)->Arg(0)->Unit(benchmark::kMillisecond);

// The run's span merge: `SpanSet::merge` of the span stream above, split
// back into its four shards' span logs, each in end-time order — the
// order a shard records its spans in — into one canonical set, with the
// key scratch kept across iterations as the service keeps it.
void BM_SpanMerge(benchmark::State& state) {
  const da::service::FrontendResult result =
      da::service::run_frontend(span_stream_config());
  std::vector<std::vector<da::obs::Span>> shards(result.shards.size());
  for (const da::obs::Span& span : result.spans) {
    shards[static_cast<std::size_t>(
               result.shard_of[static_cast<std::size_t>(span.job)])]
        .push_back(span);
  }
  std::vector<da::obs::SpanLog> logs(shards.size());
  std::vector<const da::obs::SpanLog*> runs;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    std::stable_sort(shards[s].begin(), shards[s].end(),
                     [](const auto& a, const auto& b) { return a.t1 < b.t1; });
    for (const da::obs::Span& span : shards[s]) logs[s].add(span);
    runs.push_back(&logs[s]);
  }
  std::vector<da::obs::SpanKey> keys;
  for (auto _ : state) {
    const da::obs::SpanSet merged = da::obs::SpanSet::merge(runs, keys);
    benchmark::DoNotOptimize(&merged);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.spans.size()));
  state.counters["spans"] = static_cast<double>(result.spans.size());
  state.counters["shards"] = static_cast<double>(runs.size());
}
BENCHMARK(BM_SpanMerge)->Unit(benchmark::kMillisecond);

// The span stream's whole cycle, as the perfbench `frontend` workload
// times it: one warm front-end `run()` (record, then merge) plus
// `spans_to_jsonl` of its spans. `minflt_per_iter` counts the minor page
// faults a cycle takes (getrusage): memory a cycle frees back to the
// system and touches afresh next time. Read it with this row alone
// (`--benchmark_filter=FrontendCycle`): rows run earlier in the process
// move glibc's mmap threshold, and with it the count.
void BM_FrontendCycle(benchmark::State& state) {
  da::service::ServiceFrontend frontend(span_stream_config());
  (void)frontend.run();  // slots and span logs grow once
  std::size_t bytes = 0;
  const auto minflt = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  };
  const long faults_before = minflt();
  for (auto _ : state) {
    const da::service::FrontendResult result = frontend.run();
    bytes = da::obs::spans_to_jsonl(result.spans).size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["minflt_per_iter"] =
      static_cast<double>(minflt() - faults_before) /
      static_cast<double>(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FrontendCycle)->Unit(benchmark::kMillisecond);

// The sharded front-end under the same Poisson storm as
// BM_ServiceThroughput, split across 4 shards behind the hash router.
// The front-end is constructed once (shards persist, warm slot pools)
// and re-run per iteration. range(0) = cross-shard drain workers.
void BM_FrontendThroughput(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  da::service::FrontendConfig config;
  config.service.arrivals = da::service::ArrivalSpec::poisson(400.0);
  config.service.offered = 3000;
  config.service.cap = 512;  // per shard
  config.service.policy = da::service::OverloadPolicy::kBlock;
  config.service.seed = 7;
  config.service.jobs = jobs;
  config.shards = 4;
  config.route = da::service::RoutePolicy::kHashJobId;
  da::service::ServiceFrontend frontend(config);
  da::service::FrontendResult result;
  double total_completed = 0.0;
  for (auto _ : state) {
    result = frontend.run();
    total_completed += static_cast<double>(result.completed);
    benchmark::DoNotOptimize(result.records.data());
  }
  state.counters["ips"] =
      benchmark::Counter(total_completed, benchmark::Counter::kIsRate);
  state.counters["shards"] = static_cast<double>(result.shards.size());
  state.counters["ticks"] = static_cast<double>(result.ticks);
  state.counters["p50"] = result.latency_sketch.quantile(0.50);
  state.counters["p99"] = result.latency_sketch.quantile(0.99);
}

// Per-class decision latency under a congested shed-oldest run: the
// admission queue is class-major, so high-class jobs should post lower
// queueing delay than low-class ones. range(0) = AdmissionClass.
void BM_ServiceClassLatency(benchmark::State& state) {
  const auto cls = static_cast<da::service::AdmissionClass>(state.range(0));
  da::service::ServiceConfig config;
  config.arrivals = da::service::ArrivalSpec::poisson(40.0);
  config.offered = 2000;
  config.cap = 64;
  config.queue_cap = 128;
  config.policy = da::service::OverloadPolicy::kShedOldest;
  config.seed = 7;
  da::service::AgreementService svc(config);
  da::service::ServiceResult result;
  for (auto _ : state) {
    result = svc.run();
    benchmark::DoNotOptimize(result.records.data());
  }
  const auto& sketch =
      result.class_latency[static_cast<std::size_t>(da::service::index_of(cls))];
  state.SetLabel(da::service::to_string(cls));
  state.counters["p50"] = sketch.quantile(0.50);
  state.counters["p99"] = sketch.quantile(0.99);
  state.counters["count"] = static_cast<double>(sketch.count());
}
BENCHMARK(BM_ServiceClassLatency)
    ->Arg(static_cast<int>(da::service::AdmissionClass::kHigh))
    ->Arg(static_cast<int>(da::service::AdmissionClass::kNormal))
    ->Arg(static_cast<int>(da::service::AdmissionClass::kLow))
    ->Unit(benchmark::kMillisecond);

void register_sweep_benchmarks(int jobs) {
  auto* behaviour =
      benchmark::RegisterBenchmark("BM_BehaviourSweep", BM_BehaviourSweep);
  auto* family = benchmark::RegisterBenchmark("BM_FamilySearchSweep",
                                              BM_FamilySearchSweep);
  auto* service = benchmark::RegisterBenchmark("BM_ServiceThroughput",
                                               BM_ServiceThroughput);
  auto* frontend = benchmark::RegisterBenchmark("BM_FrontendThroughput",
                                                BM_FrontendThroughput);
  // They run on the pool: the wall clock and the process's CPU time, not
  // the main thread's.
  for (auto* bench : {behaviour, family, service, frontend}) {
    bench->Unit(benchmark::kMillisecond)
        ->UseRealTime()
        ->MeasureProcessCPUTime()
        ->Arg(1);
    if (jobs > 1) bench->Arg(jobs);
  }
}

// Measured-vs-analytic message counts: run each protocol fault-free (no
// omissions) and require the runner's sim.messages_sent delta — and the
// runner's own counter — to equal the closed-form formula. Returns the
// number of mismatched rows.
int verify_analytic_counts() {
  auto& registry = da::obs::MetricsRegistry::global();
  da::Table table({"protocol", "n", "m", "measured", "analytic", "match"});
  table.set_name("analytic_vs_measured");
  int mismatches = 0;

  const auto check = [&](const char* protocol, int n, int m,
                         std::uint64_t measured, std::uint64_t analytic) {
    const bool ok = measured == analytic;
    if (!ok) ++mismatches;
    table.row(protocol, n, m, measured, analytic, ok ? "yes" : "MISMATCH");
  };

  for (const auto& [n, m] : {std::pair{4, 1}, {7, 1}, {7, 2}, {5, 0}}) {
    const da::Config config{.n = n, .m = m, .u = n - 2 * m - 1};
    const da::DegradableAgreement protocol(config);
    const auto spec = make_spec(config, 0);  // fault-free: no omissions
    const std::uint64_t before = registry.counter_value("sim.messages_sent");
    const auto result = protocol.run(spec, nullptr);
    const std::uint64_t delta =
        registry.counter_value("sim.messages_sent") - before;
    const std::uint64_t analytic =
        da::core::byz_message_count(n, m);
    check("BYZ", n, m, delta, analytic);
    check("BYZ(RunResult)", n, m, result.messages_sent, analytic);
  }

  for (const int n : {4, 7}) {
    const std::uint64_t before = registry.counter_value("sim.messages_sent");
    da::sim::RoundEngine runner(
        da::protocols::crusader::make_crusader_processes(n, 1, 0,
                                                         da::Value::of(17)),
        da::sim::RunOptions{});
    (void)runner.run();
    const std::uint64_t delta =
        registry.counter_value("sim.messages_sent") - before;
    check("crusader", n, 1, delta,
          da::protocols::crusader::crusader_message_count(n));
  }

  for (const auto& [n, m] : {std::pair{4, 1}, {5, 1}}) {
    std::vector<da::Value> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(da::Value::of(i + 1));
    const auto result = da::protocols::ic::run_interactive_consistency(
        n, m, inputs, {}, nullptr);
    check("IC", n, m, result.messages_sent,
          da::protocols::ic::ic_message_count(n, m));
  }

  std::puts("\nAnalytic vs measured message counts (fault-free runs):");
  table.print();
  return mismatches;
}

// One `service_smoke` row: `run(jobs)` with 1 and 2 workers must agree
// on the digest, the artifact and the latency sketch, with no violating
// job. `sketch` picks the row's p50/p99 source: the exact record
// quantiles, or the latency sketch (the front-end row's recorded cells).
// Returns whether the row held.
template <class Run>
bool smoke_row(da::Table& table, const char* label, bool sketch, Run run) {
  const da::service::ServiceResult lone = run(1);
  const da::service::ServiceResult pair = run(2);
  const bool invariant =
      lone.digest() == pair.digest() && lone.artifact() == pair.artifact() &&
      lone.latency_sketch.serialize() == pair.latency_sketch.serialize() &&
      lone.violations == 0 && pair.violations == 0;
  const auto quantile = [&lone, sketch](double q) {
    return sketch ? lone.latency_sketch.quantile(q) : lone.latency_quantile(q);
  };
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(lone.digest()));
  table.row(label, lone.completed, lone.shed, quantile(0.50), quantile(0.99),
            digest, invariant ? "yes" : "MISMATCH");
  return invariant;
}

// Service determinism smoke: a tiny open-loop run per arrival model, and
// a 2-shard front-end on the Poisson stream, each executed with 1 and 2
// workers. Runs in both normal and --smoke modes, so the CI service-smoke
// job gets a real check and the `--json` report carries a
// "service_smoke" table. Returns the number of mismatched rows.
int verify_service_smoke() {
  da::Table table({"model", "completed", "shed", "p50", "p99", "digest",
                   "jobs_invariant"});
  table.set_name("service_smoke");
  da::service::ServiceConfig config;
  config.offered = 200;
  config.cap = 24;
  config.queue_cap = 64;
  config.seed = 7;
  int mismatches = 0;
  for (const auto& arrivals : {da::service::ArrivalSpec::poisson(20.0),
                               da::service::ArrivalSpec::bursty(20.0),
                               da::service::ArrivalSpec::pareto(20.0)}) {
    config.arrivals = arrivals;
    const bool held = smoke_row(
        table, da::service::to_string(arrivals.kind), false, [&](int jobs) {
          config.jobs = jobs;
          return da::service::run_service(config);
        });
    if (!held) ++mismatches;
  }
  da::service::FrontendConfig front;
  front.service = config;
  front.service.arrivals = da::service::ArrivalSpec::poisson(20.0);
  front.shards = 2;
  const bool held = smoke_row(table, "frontend-2sh", true, [&](int jobs) {
    front.service.jobs = jobs;
    return da::service::run_frontend(front);
  });
  if (!held) ++mismatches;
  std::puts("\nService determinism smoke (jobs=1 vs jobs=2):");
  table.print();
  return mismatches;
}

// Console reporter that additionally captures every finished run as a
// "benchmarks" table row, so the `--json` report carries the timings and
// tools/bench_diff.py can compare two reports row-by-row.
class RecordingReporter final : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(da::Table* table) : table_(table) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      // A row is keyed by benchmark and arguments: how it is timed
      // (`/process_time/real_time`) is recording policy, not identity.
      benchmark::BenchmarkName name = run.run_name;
      name.time_type.clear();
      std::string key = name.str();
      if (run.run_type == Run::RT_Aggregate) key += "_" + run.aggregate_name;
      table_->row(key,
                  run.real_accumulated_time * 1e3 /
                      static_cast<double>(run.iterations),
                  run.cpu_accumulated_time * 1e3 /
                      static_cast<double>(run.iterations),
                  run.iterations);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  da::Table* table_;
};

}  // namespace

// Hand-rolled main instead of BENCHMARK_MAIN(): google-benchmark takes
// its `--benchmark_*` flags out of argv first, and the reporter then reads
// the rest (`--jobs`, `--json`, `--smoke`), refusing anything else.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  da::obs::BenchReporter reporter("bench_perf", argc, argv);
  reporter.set_seed(7);
  if (!reporter.smoke()) {
    register_sweep_benchmarks(reporter.jobs());
    da::Table bench_table({"benchmark", "real_ms", "cpu_ms", "iterations"});
    bench_table.set_name("benchmarks");
    RecordingReporter recording(&bench_table);
    benchmark::RunSpecifiedBenchmarks(&recording);
    benchmark::Shutdown();
    reporter.add_table(bench_table);
  }
  const int mismatches = verify_analytic_counts() + verify_service_smoke();
  return reporter.finish(mismatches == 0 ? 0 : 1);
}
