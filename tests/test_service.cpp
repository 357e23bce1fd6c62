// The agreement service (src/service/): arrival-model statistics, the
// admission/backpressure machinery, slot recycling, and the determinism
// contract — fixed (seed, arrival spec, cap, policy) must yield
// byte-identical per-job artifacts for every `jobs` value.

#include "service/service.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/byz.hpp"
#include "core/scenario.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "service/admission.hpp"
#include "service/arrivals.hpp"
#include "service/frontend.hpp"

namespace da::service {
namespace {

std::uint64_t registry_counter(const char* name) {
  return obs::MetricsRegistry::global().counter_value(name);
}

// ------------------------------------------------------------ arrivals --

TEST(Arrivals, ParseRoundTrips) {
  for (ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kPareto}) {
    const auto parsed = parse_arrival_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_arrival_kind("uniform").has_value());
  EXPECT_FALSE(parse_arrival_kind("").has_value());
}

TEST(Arrivals, StrictlyIncreasingAndDeterministic) {
  for (ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kPareto}) {
    ArrivalSpec spec;
    switch (kind) {
      case ArrivalKind::kPoisson:
        spec = ArrivalSpec::poisson(4.0);
        break;
      case ArrivalKind::kBursty:
        spec = ArrivalSpec::bursty(4.0);
        break;
      case ArrivalKind::kPareto:
        spec = ArrivalSpec::pareto(4.0);
        break;
    }
    ArrivalGenerator a(spec, 11);
    ArrivalGenerator b(spec, 11);
    ArrivalGenerator c(spec, 12);
    double prev = 0.0;
    bool seed_matters = false;
    for (int i = 0; i < 1000; ++i) {
      const double t = a.next();
      EXPECT_GT(t, prev) << to_string(kind) << " draw " << i;
      EXPECT_DOUBLE_EQ(t, b.next()) << to_string(kind);
      if (t != c.next()) seed_matters = true;
      prev = t;
    }
    EXPECT_TRUE(seed_matters) << to_string(kind);
  }
}

TEST(Arrivals, PoissonMatchesRate) {
  const double rate = 8.0;
  ArrivalGenerator gen(ArrivalSpec::poisson(rate), 5);
  const int n = 20000;
  double last = 0.0;
  for (int i = 0; i < n; ++i) last = gen.next();
  const double observed = n / last;
  EXPECT_NEAR(observed, rate, 0.05 * rate);
}

TEST(Arrivals, BurstyMatchesLongRunRate) {
  // The ON-state rate compensates for the OFF silences: over many on/off
  // cycles the long-run rate converges to the requested mean.
  const double rate = 6.0;
  ArrivalGenerator gen(ArrivalSpec::bursty(rate), 5);
  const int n = 50000;
  double last = 0.0;
  for (int i = 0; i < n; ++i) last = gen.next();
  EXPECT_NEAR(n / last, rate, 0.15 * rate);
}

TEST(Arrivals, BurstyOpensInTheOnState) {
  // Construction-state pin: the phase machine starts ON at t=0 with a
  // first phase boundary drawn from the ON mean.
  ArrivalGenerator gen(ArrivalSpec::bursty(4.0), 7);
  EXPECT_TRUE(gen.bursty_on());
  EXPECT_DOUBLE_EQ(gen.now(), 0.0);
  EXPECT_GT(gen.bursty_phase_end(), 0.0);

  // Statistical pin that fails on an OFF-start generator. bursty(4.0)
  // bursts at rate 16 with a mean OFF period of 15: opening ON puts the
  // mean first arrival near 1/16 (~0.06, plus a small correction for
  // streams whose first ON phase ends before the first draw), while
  // opening OFF would push it past the OFF mean, near 15.
  double sum = 0.0;
  const int seeds = 400;
  for (int s = 0; s < seeds; ++s) {
    ArrivalGenerator g(ArrivalSpec::bursty(4.0), 1000 + s);
    sum += g.next();
  }
  const double mean_first = sum / seeds;
  EXPECT_GT(mean_first, 0.0);
  EXPECT_LT(mean_first, 2.0) << "stream appears to open in the OFF state";
}

TEST(Arrivals, BurstyNeverArrivesInsideAnOffPhase) {
  // Every arrival must land inside an ON phase: after next() returns the
  // machine sits in the ON phase containing the arrival, with the arrival
  // no later than that phase's end. Distinct phase boundaries prove the
  // walk actually cycled through OFF silences rather than idling in one
  // long ON phase.
  ArrivalGenerator gen(ArrivalSpec::bursty(6.0), 9);
  std::set<double> phase_ends;
  for (int i = 0; i < 20000; ++i) {
    const double t = gen.next();
    ASSERT_TRUE(gen.bursty_on()) << "arrival " << i << " inside OFF";
    ASSERT_LE(t, gen.bursty_phase_end()) << "arrival " << i;
    ASSERT_DOUBLE_EQ(gen.now(), t);
    phase_ends.insert(gen.bursty_phase_end());
  }
  EXPECT_GT(phase_ends.size(), 100u) << "phase machine never left ON";
}

TEST(Arrivals, ReconstructedGeneratorReplaysTheStream) {
  // Reconstruction determinism: a fresh generator with the same (spec,
  // seed) replays the identical stream, including the bursty phase-machine
  // state at every step.
  const ArrivalSpec spec = ArrivalSpec::bursty(8.0);
  std::vector<double> times;
  std::vector<double> ends;
  {
    ArrivalGenerator gen(spec, 31);
    for (int i = 0; i < 5000; ++i) {
      times.push_back(gen.next());
      ends.push_back(gen.bursty_phase_end());
    }
  }
  ArrivalGenerator replay(spec, 31);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_DOUBLE_EQ(replay.next(), times[static_cast<std::size_t>(i)]);
    EXPECT_DOUBLE_EQ(replay.bursty_phase_end(),
                     ends[static_cast<std::size_t>(i)]);
  }
}

TEST(Arrivals, ParetoGapsBoundedAndMatchRate) {
  const double rate = 5.0;
  const double alpha = 1.5;
  const double cap = 100.0;
  ArrivalGenerator gen(ArrivalSpec::pareto(rate, alpha, cap), 5);
  const int n = 50000;
  double prev = 0.0;
  double last = 0.0;
  double max_gap = 0.0;
  double min_gap = 1e300;
  for (int i = 0; i < n; ++i) {
    last = gen.next();
    const double gap = last - prev;
    max_gap = std::max(max_gap, gap);
    min_gap = std::min(min_gap, gap);
    prev = last;
  }
  // Bounded support: every gap lies in [min, cap * min] where min is the
  // unscaled minimum rescaled by the mean; heavy tail means the largest
  // observed gap dwarfs the smallest.
  EXPECT_LE(max_gap, cap * min_gap * (1.0 + 1e-9));
  EXPECT_GT(max_gap, 10.0 * min_gap);
  EXPECT_NEAR(n / last, rate, 0.1 * rate);
}

// ------------------------------------------------------------- service --

ServiceConfig small_config() {
  ServiceConfig config;
  config.arrivals = ArrivalSpec::poisson(10.0);
  config.offered = 300;
  config.cap = 32;
  config.seed = 21;
  return config;
}

TEST(Service, CompletesEveryJobUnderBlockPolicy) {
  ServiceConfig config = small_config();
  config.policy = OverloadPolicy::kBlock;
  const ServiceResult result = run_service(config);
  EXPECT_EQ(result.completed, config.offered);
  EXPECT_EQ(result.shed, 0u);
  EXPECT_EQ(result.violations, 0u);
  EXPECT_EQ(result.records.size(), config.offered);
  for (const JobRecord& rec : result.records) {
    EXPECT_FALSE(rec.shed);
    EXPECT_GE(rec.admitted, rec.arrival);
    EXPECT_GT(rec.completed, rec.admitted);
    EXPECT_TRUE(rec.satisfied) << "job " << rec.id;
    EXPECT_NE(rec.applied, Condition::kNone) << "job " << rec.id;
    EXPECT_NE(rec.decisions_digest, 0u) << "job " << rec.id;
  }
  EXPECT_GT(result.throughput(), 0.0);
  // Nearest-rank quantiles are monotone in q.
  EXPECT_LE(result.latency_quantile(0.5), result.latency_quantile(0.9));
  EXPECT_LE(result.latency_quantile(0.9), result.latency_quantile(0.99));
}

TEST(Service, DeterministicAcrossJobsValues) {
  // The acceptance pin: jobs=1 and jobs=4 must produce byte-identical
  // artifacts and equal digests for every arrival model.
  for (ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kPareto}) {
    ServiceConfig config = small_config();
    switch (kind) {
      case ArrivalKind::kPoisson:
        config.arrivals = ArrivalSpec::poisson(20.0);
        break;
      case ArrivalKind::kBursty:
        config.arrivals = ArrivalSpec::bursty(20.0);
        break;
      case ArrivalKind::kPareto:
        config.arrivals = ArrivalSpec::pareto(20.0);
        break;
    }
    config.cap = 16;  // force queueing so admission order is exercised
    config.queue_cap = 8;
    config.jobs = 1;
    const ServiceResult lone = run_service(config);
    config.jobs = 4;
    const ServiceResult fleet = run_service(config);
    EXPECT_EQ(lone.digest(), fleet.digest()) << to_string(kind);
    EXPECT_EQ(lone.artifact(), fleet.artifact()) << to_string(kind);
    EXPECT_EQ(lone.completed, fleet.completed) << to_string(kind);
    EXPECT_EQ(lone.shed, fleet.shed) << to_string(kind);
    EXPECT_EQ(lone.peak_active, fleet.peak_active) << to_string(kind);
  }
}

TEST(Service, PooledTicksOfSeveralChunksMatchInlineTicks) {
  // A pooled tick cuts chunks of at least 16 instances, so one shard
  // splits into concurrent chunks (advance on several threads, settle on
  // whichever finishes last) only with more than 32 instances active.
  // This stream keeps that many active, so the sanitizer legs see that
  // path too, and its records must match the inline run's.
  ServiceConfig config = small_config();
  config.arrivals = ArrivalSpec::poisson(40.0);
  config.cap = 96;
  config.jobs = 1;
  const ServiceResult lone = run_service(config);
  ASSERT_GT(lone.peak_active, 32);
  config.jobs = 4;
  const ServiceResult fleet = run_service(config);
  EXPECT_EQ(lone.digest(), fleet.digest());
  EXPECT_EQ(lone.artifact(), fleet.artifact());
}

TEST(Service, RepeatedRunsOfOneServiceAreIdentical) {
  AgreementService svc(small_config());
  const ServiceResult first = svc.run();
  const ServiceResult second = svc.run();
  EXPECT_EQ(first.digest(), second.digest());
  EXPECT_EQ(first.artifact(), second.artifact());
}

TEST(Service, SlotRecyclingIsAllocationFreeAfterWarmup) {
  // Churn >= 10k instances through a small pool: after the first run has
  // warmed every shape's free list, further admissions must not construct
  // a single new slot — `slots_created` freezes while `slot_reuse` grows
  // by at least the offered load. (An IC job counts config.n instances,
  // so 10k offered jobs exceed 10k instances.)
  ServiceConfig config = small_config();
  config.offered = 10000;
  config.cap = 24;
  config.policy = OverloadPolicy::kBlock;
  AgreementService svc(config);
  (void)svc.run();  // warm-up: constructs the steady-state pool
  const std::uint64_t warm_slots = svc.slots_created();
  const std::uint64_t warm_reuses = svc.slot_reuses();
  EXPECT_GT(warm_slots, 0u);
  // Free lists are per shape, so the pool can hold up to `cap` slots for
  // each of the default mix's 7 shapes (3 BYZ + 4 IC coordinates) — still
  // a constant, vanishing next to the 10k-job churn.
  EXPECT_LE(warm_slots, static_cast<std::uint64_t>(config.cap) * 7);
  const std::uint64_t warm_counter = registry_counter("service.slots_created");

  const ServiceResult churn = svc.run();
  EXPECT_EQ(churn.completed, config.offered);
  EXPECT_EQ(svc.slots_created(), warm_slots)
      << "steady-state admission constructed a slot";
  EXPECT_GE(svc.slot_reuses() - warm_reuses, config.offered);
  // Registry counters mirror the service's own tallies.
  EXPECT_EQ(registry_counter("service.slots_created"), warm_counter);
  EXPECT_GE(registry_counter("service.slot_reuse"), svc.slot_reuses());
}

TEST(Service, ShedOldestBoundsTheQueue) {
  ServiceConfig config = small_config();
  config.arrivals = ArrivalSpec::poisson(50.0);  // ~6x what cap=8 drains
  config.offered = 400;
  config.cap = 8;
  config.queue_cap = 16;
  config.policy = OverloadPolicy::kShedOldest;
  const ServiceResult result = run_service(config);
  EXPECT_GT(result.shed, 0u);
  EXPECT_EQ(result.completed + result.shed, config.offered);
  std::uint64_t shed_seen = 0;
  for (const JobRecord& rec : result.records) {
    if (rec.shed) {
      ++shed_seen;
      EXPECT_LT(rec.admitted, 0.0);
      EXPECT_LT(rec.completed, 0.0);
    } else {
      EXPECT_GE(rec.completed, 0.0) << "job " << rec.id;
      // The bounded queue caps how long any admitted job waited.
      EXPECT_LE(rec.queue_wait(), result.makespan);
    }
  }
  EXPECT_EQ(shed_seen, result.shed);
}

TEST(Service, BlockPolicyTradesLatencyForCompleteness) {
  ServiceConfig config = small_config();
  config.arrivals = ArrivalSpec::poisson(50.0);
  config.offered = 400;
  config.cap = 8;
  config.policy = OverloadPolicy::kBlock;
  const ServiceResult result = run_service(config);
  EXPECT_EQ(result.completed, config.offered);
  EXPECT_EQ(result.shed, 0u);
  bool queued = false;
  for (const JobRecord& rec : result.records) {
    if (rec.queue_wait() > 0.0) queued = true;
  }
  EXPECT_TRUE(queued) << "overload never queued anything";
}

TEST(Service, IcJobOccupiesItsWidthInSlots) {
  ServiceConfig config;
  config.arrivals = ArrivalSpec::poisson(0.05);  // sparse: one at a time
  config.offered = 5;
  config.cap = 4;
  config.seed = 3;
  config.mix.push_back({JobKind::kIc, Config{.n = 4, .m = 1, .u = 1}, 0,
                        Value::of(17), {3}});
  const ServiceResult result = run_service(config);
  EXPECT_EQ(result.completed, config.offered);
  EXPECT_EQ(result.violations, 0u);
  // Each IC job holds all n = 4 coordinate slots while active.
  EXPECT_EQ(result.peak_active, 4);
  for (const JobRecord& rec : result.records) {
    EXPECT_TRUE(rec.satisfied);
    EXPECT_NE(rec.applied, Condition::kNone);
  }
}

TEST(Service, DefaultMixShapesAreFeasible) {
  for (const JobTemplate& tmpl : default_mix()) {
    EXPECT_TRUE(tmpl.config.valid()) << tmpl.to_string();
    EXPECT_TRUE(tmpl.config.engine_runnable()) << tmpl.to_string();
    EXPECT_FALSE(tmpl.to_string().empty());
    EXPECT_LE(static_cast<int>(tmpl.faulty.size()), tmpl.config.m + tmpl.config.u)
        << tmpl.to_string();
  }
}

// ----------------------------------------------------------- admission --

TEST(Admission, ParseRoundTrips) {
  for (AdmissionClass cls : {AdmissionClass::kHigh, AdmissionClass::kNormal,
                             AdmissionClass::kLow}) {
    const auto parsed = parse_admission_class(to_string(cls));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, cls);
  }
  EXPECT_FALSE(parse_admission_class("urgent").has_value());
  EXPECT_FALSE(parse_admission_class("").has_value());
}

TEST(Admission, ClassMajorFifoOrderAndBlocking) {
  AdmissionQueue q;
  EXPECT_TRUE(q.empty());
  // Nothing queued blocks nothing.
  EXPECT_FALSE(q.blocks(AdmissionClass::kHigh));
  EXPECT_FALSE(q.blocks(AdmissionClass::kLow));

  q.push(AdmissionClass::kLow, {.job = 1, .width = 2});
  q.push(AdmissionClass::kNormal, {.job = 2});
  q.push(AdmissionClass::kLow, {.job = 3});
  q.push(AdmissionClass::kHigh, {.job = 4});
  q.push(AdmissionClass::kNormal, {.job = 5});
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.size_of(AdmissionClass::kHigh), 1u);
  EXPECT_EQ(q.size_of(AdmissionClass::kNormal), 2u);
  EXPECT_EQ(q.size_of(AdmissionClass::kLow), 2u);
  EXPECT_EQ(q.queued_width(), 6);  // 4 unit jobs + one width-2 job

  // A queued normal blocks arriving normal/low but lets high overtake.
  EXPECT_TRUE(q.blocks(AdmissionClass::kLow));
  EXPECT_TRUE(q.blocks(AdmissionClass::kNormal));
  EXPECT_TRUE(q.blocks(AdmissionClass::kHigh));  // job 4 queued
  // The admission head walks (class, FIFO): 4, 2, 5, 1, 3.
  const std::uint64_t expected[] = {4, 2, 5, 1, 3};
  for (const std::uint64_t want : expected) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.front().job, want);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.queued_width(), 0);
}

TEST(Admission, ShedVictimIsOldestOfLowestClass) {
  AdmissionQueue q;
  q.push(AdmissionClass::kHigh, {.job = 1});
  q.push(AdmissionClass::kLow, {.job = 2});
  q.push(AdmissionClass::kLow, {.job = 3});
  q.push(AdmissionClass::kNormal, {.job = 4});
  // Sheds consume kLow oldest-first, then kNormal, then kHigh.
  EXPECT_EQ(q.pop_shed_victim().job, 2u);
  EXPECT_EQ(q.pop_shed_victim().job, 3u);
  EXPECT_EQ(q.pop_shed_victim().job, 4u);
  EXPECT_EQ(q.pop_shed_victim().job, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(Admission, ExpireRemovesOnlyPastDeadlines) {
  AdmissionQueue q;
  q.push(AdmissionClass::kNormal, {.job = 1, .deadline_at = 5.0});
  q.push(AdmissionClass::kNormal, {.job = 2});  // kNoDeadline
  q.push(AdmissionClass::kLow, {.job = 3, .deadline_at = 2.0});
  q.push(AdmissionClass::kHigh, {.job = 4, .deadline_at = 3.0});

  std::vector<std::uint64_t> expired;
  const auto collect = [&expired](AdmissionClass, const QueuedJob& victim) {
    expired.push_back(victim.job);
  };
  q.expire(2.0, collect);  // strictly-before: deadline_at == now survives
  EXPECT_TRUE(expired.empty());
  q.expire(3.5, collect);  // class-major order: high job 4, then low job 3
  EXPECT_EQ(expired, (std::vector<std::uint64_t>{4, 3}));
  EXPECT_EQ(q.size(), 2u);
  q.expire(1e9, collect);  // job 2 has no deadline and never expires
  EXPECT_EQ(expired, (std::vector<std::uint64_t>{4, 3, 1}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front().job, 2u);
}

TEST(Service, RejectsEngineUnrunnableConfigAtTheBoundary) {
  // (n=2, m=1) is well-formed but below the engine floor n >= 2m+1: the
  // deepest VOTE quorum would be empty. Before the structured boundary
  // this aborted via a contract failure deep inside EIG setup; now both
  // the engine factory and service construction throw a typed,
  // recoverable rejection carrying the offending config.
  const Config bad{.n = 2, .m = 1, .u = 1};
  EXPECT_TRUE(bad.valid());
  EXPECT_FALSE(bad.engine_runnable());

  try {
    (void)core::make_byz_processes(bad, 0, Value::of(17));
    FAIL() << "the engine factory accepted an engine-unrunnable config";
  } catch (const UnsupportedConfig& rejected) {
    EXPECT_EQ(rejected.config().n, 2);
    EXPECT_EQ(rejected.config().m, 1);
    EXPECT_NE(std::string(rejected.what()).find("n >= 2m+1"),
              std::string::npos);
  }

  ServiceConfig config = small_config();
  config.mix.push_back(
      {JobKind::kByz, bad, 0, Value::of(17), {1}, AdmissionClass::kNormal});
  EXPECT_THROW(AgreementService{config}, UnsupportedConfig);

  // The boundary, not valid(): n=3, m=1 sits exactly on the floor.
  EXPECT_TRUE((Config{.n = 3, .m = 1, .u = 1}).engine_runnable());
}

TEST(Service, RejectsCapBelowWidestTemplateWithTypedError) {
  // The default mix's IC job (n=4) holds 4 slots at once: under cap 3 it
  // could never be admitted. That used to fail a contract (an abort in
  // service_demo); it is now a typed, recoverable rejection.
  ServiceConfig config = small_config();
  config.cap = 3;
  try {
    AgreementService svc(config);
    FAIL() << "a mix wider than the cap was accepted";
  } catch (const JobWiderThanCap& rejected) {
    EXPECT_EQ(rejected.width(), 4);
    EXPECT_EQ(rejected.cap(), 3);
    EXPECT_NE(std::string(rejected.what()).find("cap 3"), std::string::npos);
  }
  FrontendConfig sharded;
  sharded.service = config;
  sharded.shards = 2;
  EXPECT_THROW(ServiceFrontend{sharded}, JobWiderThanCap);

  config.cap = 4;  // exactly the widest template: fine
  EXPECT_NO_THROW(AgreementService{config});
}

TEST(Service, RejectsCountsPastTheirBoundsWithTypedError) {
  // A run keeps a record per offered job and each shard is a whole
  // service: past their bounds both are refused on construction, before
  // anything is sized by them (`--offered 18446744073709551615` used to
  // abort on a std::length_error).
  ServiceConfig config = small_config();
  config.offered = ServiceConfig::kMaxOffered + 1;
  EXPECT_THROW(AgreementService{config}, CountOutOfRange);
  FrontendConfig sharded;
  sharded.service = config;
  EXPECT_THROW(ServiceFrontend{sharded}, CountOutOfRange);
  config.offered = ServiceConfig::kMaxOffered;  // at the bound: fine
  EXPECT_NO_THROW(AgreementService{config});

  sharded.service = small_config();
  sharded.shards = FrontendConfig::kMaxShards + 1;
  try {
    ServiceFrontend frontend(sharded);
    FAIL() << "more shards than the bound were accepted";
  } catch (const CountOutOfRange& rejected) {
    EXPECT_NE(std::string(rejected.what()).find("shards = 1025"),
              std::string::npos)
        << rejected.what();
  }
}

TEST(Service, ShedConsumesLowestClassFirstUnderOverload) {
  // Sustained ~5x overload: the default mix spreads jobs over
  // kHigh/kNormal/kLow, and shed-lowest-class-first must make the lower
  // classes absorb the loss while the high class rides the overload out
  // untouched. (The queue bound must exceed the high-class backlog — a
  // queue saturated end-to-end with high jobs would shed highs too.)
  ServiceConfig config;
  config.arrivals = ArrivalSpec::poisson(20.0);
  config.offered = 400;
  config.cap = 8;
  config.queue_cap = 32;
  config.policy = OverloadPolicy::kShedOldest;
  config.seed = 21;
  const ServiceResult result = run_service(config);
  EXPECT_GT(result.shed, 0u);
  EXPECT_EQ(result.completed + result.shed, config.offered);

  std::array<std::uint64_t, kAdmissionClassCount> offered_by{};
  std::array<std::uint64_t, kAdmissionClassCount> shed_by{};
  for (const JobRecord& rec : result.records) {
    const auto c = static_cast<std::size_t>(index_of(rec.admission));
    ++offered_by[c];
    if (rec.shed) {
      ++shed_by[c];
      EXPECT_FALSE(rec.deadline_missed);  // no template carries a deadline
    }
  }
  const auto high = static_cast<std::size_t>(index_of(AdmissionClass::kHigh));
  const auto low = static_cast<std::size_t>(index_of(AdmissionClass::kLow));
  EXPECT_GT(offered_by[high], 0u);
  EXPECT_GT(offered_by[low], 0u);
  EXPECT_EQ(shed_by[high], 0u) << "overload shed a protected high-class job";
  EXPECT_GT(shed_by[low], 0u);
  // The low class loses a larger *fraction* than every other class.
  const double low_loss =
      static_cast<double>(shed_by[low]) / static_cast<double>(offered_by[low]);
  for (std::size_t c = 0; c < kAdmissionClassCount; ++c) {
    if (c == low) continue;
    const double loss = offered_by[c] == 0
                            ? 0.0
                            : static_cast<double>(shed_by[c]) /
                                  static_cast<double>(offered_by[c]);
    EXPECT_GT(low_loss, loss) << "class " << c;
  }
}

TEST(Service, DeadlineMissedIsADistinctDisposition) {
  // One minimal BYZ template with a tight admission deadline under heavy
  // overload and the *block* policy: the only way out of the queue is
  // admission or expiry, so every shed is a deadline miss.
  ServiceConfig config;
  config.arrivals = ArrivalSpec::poisson(50.0);
  config.offered = 300;
  config.cap = 4;
  config.policy = OverloadPolicy::kBlock;
  config.seed = 13;
  JobTemplate tmpl = default_mix()[1];  // n=4 m=1, completes in 2 ticks
  tmpl.deadline = 2.0;
  config.mix.push_back(tmpl);

  config.jobs = 1;
  const ServiceResult result = run_service(config);
  EXPECT_GT(result.deadline_missed, 0u);
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.deadline_missed, result.shed)
      << "kBlock shed a job for a reason other than its deadline";
  EXPECT_EQ(result.completed + result.shed, config.offered);
  for (const JobRecord& rec : result.records) {
    if (!rec.deadline_missed) continue;
    EXPECT_TRUE(rec.shed);
    EXPECT_LT(rec.admitted, 0.0);
    EXPECT_LT(rec.completed, 0.0);
    // Shed exactly at the deadline instant, relative to arrival.
    EXPECT_NEAR(rec.shed_at, rec.arrival + tmpl.deadline, 1e-9);
  }
  // The artifact reports the distinct disposition.
  EXPECT_NE(result.artifact().find("DEADLINE"), std::string::npos);
  EXPECT_EQ(result.artifact().find(" SHED"), std::string::npos);

  // Deadline expiry happens on the event loop, so the records stay
  // byte-identical for every jobs value.
  config.jobs = 4;
  const ServiceResult fleet = run_service(config);
  EXPECT_EQ(result.digest(), fleet.digest());
  EXPECT_EQ(result.artifact(), fleet.artifact());
}

TEST(ServiceObs, CompletedCounterAgreesAtEveryInstant) {
  // The counter-drift regression: `service.completed` is bumped at
  // completion time, so a registry read at *any* event instant agrees
  // with the service's own tally and with the periodic samples — not
  // just after an end-of-run fold. Drive the service manually (the same
  // primitives run() uses) and check at every event boundary.
  ServiceConfig config = small_config();
  config.offered = 150;
  config.cap = 16;
  config.jobs = 1;  // all completions on this thread => exact TLS flush
  AgreementService svc(config);

  const std::uint64_t base = registry_counter("service.completed");
  constexpr double kNever = std::numeric_limits<double>::infinity();
  ArrivalGenerator gen(config.arrivals, config.seed);
  svc.begin_run(config.offered);
  std::uint64_t arrived = 0;
  double next_arrival = gen.next();
  double next_tick = kNever;
  double now = 0.0;
  while (svc.finished() < config.offered) {
    if (arrived < config.offered && next_arrival <= next_tick) {
      now = next_arrival;
      const std::uint64_t id = arrived++;
      next_arrival = arrived < config.offered ? gen.next() : kNever;
      JobOffer offer;
      offer.id = id;
      offer.template_index =
          draw_template_index(config.seed, id, svc.mix().size());
      offer.adversary_index =
          draw_adversary_index(config.seed, id, svc.adversary_count());
      svc.offer_job(offer, now);
      if (!svc.idle() && next_tick == kNever) {
        next_tick = now + config.round_period;
      }
    } else {
      ASSERT_NE(next_tick, kNever);
      now = next_tick;
      svc.step(now);
      next_tick = svc.idle() ? kNever : now + config.round_period;
    }
    // The pin: the registry agrees with the event-loop tally *now*.
    ASSERT_EQ(registry_counter("service.completed") - base,
              svc.completed_so_far());
  }
  const ServiceResult result = svc.end_run(now);
  EXPECT_EQ(result.completed, config.offered);
  EXPECT_EQ(registry_counter("service.completed") - base, result.completed);

  // The periodic samples carry the same instant-consistent tally: each
  // point's completed figure is the event-loop tally at its instant, so
  // the series is monotone, per-class slices sum to it, and the closing
  // point equals the counter's final value.
  config.sample_every = 0.5;
  const std::uint64_t sampled_base = registry_counter("service.completed");
  const ServiceResult sampled = run_service(config);
  ASSERT_FALSE(sampled.samples.empty());
  std::uint64_t prev = 0;
  for (const ServiceSample& sample : sampled.samples) {
    EXPECT_GE(sample.completed, prev);
    std::uint64_t by_class = 0;
    for (const std::uint64_t c : sample.completed_by_class) by_class += c;
    EXPECT_EQ(by_class, sample.completed);
    prev = sample.completed;
  }
  EXPECT_EQ(sampled.samples.back().completed, sampled.completed);
  EXPECT_EQ(registry_counter("service.completed") - sampled_base,
            sampled.completed);
}

TEST(ServiceObs, ViolationCountersMatchTheVerdicts) {
  // (n=4, m=1, u=2) is one node short of N >= 2m+u+1, so the service's
  // liars and equivocators break it: a fault-free sender with faulty
  // {1,2} violates D.3, a faulty sender with {0,1} violates D.4. Each
  // violating job ticks `service.violations` once and the counter of the
  // condition it violated once, at completion.
  ServiceConfig config;
  config.arrivals = ArrivalSpec::poisson(4.0);
  config.offered = 60;
  config.cap = 8;
  config.seed = 7;
  config.jobs = 1;  // completions on this thread: the run's scope flushes
  const Config short_cell{.n = 4, .m = 1, .u = 2};
  config.mix.push_back(
      {JobKind::kByz, short_cell, 0, Value::of(17), {1, 2}});
  config.mix.push_back(
      {JobKind::kByz, short_cell, 0, Value::of(17), {0, 1}});

  const char* const names[] = {"service.violations", "service.violations.d1",
                               "service.violations.d2",
                               "service.violations.d3",
                               "service.violations.d4"};
  std::array<std::uint64_t, 5> before{};
  for (std::size_t i = 0; i < before.size(); ++i) {
    before[i] = registry_counter(names[i]);
  }
  const ServiceResult result = run_service(config);
  std::array<std::uint64_t, 4> by_condition{};  // D.1-D.4
  for (const JobRecord& rec : result.records) {
    if (!rec.shed && !rec.satisfied) {
      ++by_condition[static_cast<std::size_t>(rec.applied)];
    }
  }
  ASSERT_GT(result.violations, 0u);
  EXPECT_GT(by_condition[2], 0u);  // D.3
  EXPECT_GT(by_condition[3], 0u);  // D.4
  EXPECT_EQ(registry_counter(names[0]) - before[0], result.violations);
  for (std::size_t c = 0; c < by_condition.size(); ++c) {
    EXPECT_EQ(registry_counter(names[c + 1]) - before[c + 1], by_condition[c])
        << names[c + 1];
  }
  // Operators read them from the exposition, zeros included.
  const std::string text =
      obs::to_exposition(obs::MetricsRegistry::global().snapshot());
  EXPECT_NE(text.find("# TYPE da_service_violations counter"),
            std::string::npos);
  for (const char* line :
       {"da_service_violations_d1 ", "da_service_violations_d2 ",
        "da_service_violations_d3 ", "da_service_violations_d4 "}) {
    EXPECT_NE(text.find(line), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace da::service
