// Allocation pins for the hot paths that claim to be allocation-free once
// warm: one service instance's round cycle on the checkpoint/fork engine
// (restore, then dispatch_pending / process_round to the end, then
// finish_into), on reliable links and under fault injection, the
// checker's `sim::Decisions` forms, the service's admission queue, the
// engine's config predicate, which refuses an over-budget instance
// without building anything, and span recording in warm service runs,
// which keep their span logs.
//
// This file replaces the global `operator new` with one that counts the
// calls made on the calling thread while a `Counting` guard is alive, so
// it is built as its own executable (`da_alloc_tests`) and not under a
// sanitizer, whose runtime owns `operator new` (tests/CMakeLists.txt).

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/byz.hpp"
#include "core/checker.hpp"
#include "core/scenario.hpp"
#include "faults/adversaries.hpp"
#include "inject/injection_network.hpp"
#include "protocols/common/eig_layout.hpp"
#include "protocols/lamport/om.hpp"
#include "service/admission.hpp"
#include "service/frontend.hpp"
#include "service/service.hpp"
#include "sim/round_engine.hpp"
#include "sim/runner.hpp"

namespace {

thread_local bool g_armed = false;
thread_local std::uint64_t g_news = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_armed) ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line, so the compiler does not pair an inlined free() with the
// operator new call it came from and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace da {
namespace {

/// Counts this thread's `operator new` calls while alive.
class Counting {
 public:
  Counting() {
    g_news = 0;
    g_armed = true;
  }
  ~Counting() { g_armed = false; }
  Counting(const Counting&) = delete;
  Counting& operator=(const Counting&) = delete;

  [[nodiscard]] std::uint64_t news() const { return g_news; }
};

constexpr int kWarmCycles = 3;
constexpr int kCountedCycles = 20;

/// One service instance shape: the engine starts as a restore of the
/// round-0 pre-dispatch snapshot, exactly as an admitted slot does.
struct Instance {
  ScenarioSpec spec;
  std::unique_ptr<sim::Adversary> adversary;
  std::unique_ptr<sim::RoundEngine> engine;
  sim::RoundEngine::Snapshot start;
  sim::RunResult result;

  Instance(ScenarioSpec s, std::vector<std::unique_ptr<sim::Process>> procs,
           std::unique_ptr<sim::Adversary> adv)
      : spec(std::move(s)), adversary(std::move(adv)) {
    sim::RunOptions options;
    options.faulty = spec.faulty;
    options.adversary = adversary.get();
    engine = std::make_unique<sim::RoundEngine>(std::move(procs), options);
    engine->begin();
    start = engine->snapshot();
  }

  void cycle() {
    engine->restore(start);
    while (!engine->done()) {
      engine->dispatch_pending();
      engine->process_round();
    }
    engine->finish_into(result);
  }

  /// `operator new` calls of `kCountedCycles` warm cycles.
  std::uint64_t warm_cycle_news() {
    for (int i = 0; i < kWarmCycles; ++i) cycle();
    const Counting counting;
    for (int i = 0; i < kCountedCycles; ++i) cycle();
    return counting.news();
  }
};

ScenarioSpec spec_of(Config config, NodeId sender, std::vector<NodeId> faulty) {
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = sender;
  spec.sender_value = Value::of(17);
  spec.faulty = std::move(faulty);
  return spec;
}

Instance byz(Config config, std::vector<NodeId> faulty) {
  ScenarioSpec spec = spec_of(config, 0, std::move(faulty));
  auto procs = core::make_byz_processes(config, spec.sender, spec.sender_value);
  return Instance(std::move(spec), std::move(procs),
                  faults::equivocator(Value::of(17), Value::of(5)));
}

// Guards the zero pins below against a counter that never counts.
TEST(Alloc, CounterSeesAllocationsOnlyWhileArmed) {
  std::vector<int> before(8);
  std::uint64_t news = 0;
  {
    const Counting counting;
    std::vector<int> counted(8);
    news = counting.news();
  }
  std::vector<int> after(8);
  EXPECT_EQ(news, 1u);
  EXPECT_EQ(g_news, 1u);
}

TEST(Alloc, WarmByzDegradedRangeRoundsAllocateNothing) {
  Instance inst = byz(Config{.n = 7, .m = 1, .u = 4}, {2, 3});
  EXPECT_EQ(inst.warm_cycle_news(), 0u);
  EXPECT_GT(inst.result.messages_sent, 0u);
}

TEST(Alloc, WarmByzThreeRoundRoundsAllocateNothing) {
  // The heavy shape: two relay rounds, the most fresh paths per node.
  Instance inst = byz(Config{.n = 7, .m = 2, .u = 2}, {1, 2});
  EXPECT_EQ(inst.warm_cycle_news(), 0u);
  EXPECT_GT(inst.result.messages_sent, 0u);
}

TEST(Alloc, WarmByzInjectedRoundsAllocateNothing) {
  // Duplicated and delayed sends: the network model appends each send's
  // copies to the engine's held buffer, so a warm cycle still allocates
  // nothing.
  inject::FaultPlan plan;
  plan.seed = 3;
  plan.rates.duplicate = 0.05;
  plan.rates.delay = 0.10;
  inject::InjectionNetwork network(plan);
  Instance inst = byz(Config{.n = 7, .m = 1, .u = 4}, {2, 3});
  inst.engine->set_network(&network);
  EXPECT_EQ(inst.warm_cycle_news(), 0u);
  EXPECT_GT(network.stats().duplicated, 0u);
  EXPECT_GT(network.stats().delayed, 0u);
  EXPECT_GT(inst.result.messages_delivered, inst.result.messages_sent);
}

TEST(Alloc, WarmIcCoordinateRoundsAllocateNothing) {
  // One interactive-consistency coordinate: node 1 distributes its value
  // via OM(1) while node 3 is faulty.
  ScenarioSpec spec = spec_of(Config{.n = 4, .m = 1, .u = 1}, 1, {3});
  auto procs = protocols::lamport::make_om_processes(
      4, 1, spec.sender, spec.sender_value);
  Instance inst(std::move(spec), std::move(procs),
                faults::equivocator(Value::of(17), Value::of(5)));
  EXPECT_EQ(inst.warm_cycle_news(), 0u);
  EXPECT_GT(inst.result.messages_sent, 0u);
}

TEST(Alloc, WarmSatisfiedCheckAllocatesOnlyTheValueClass) {
  // D.1 on BYZ(7,1,4) with one faulty receiver: every fault-free receiver
  // lands in the value class, whose copy into the report is the call's
  // one allocation.
  Instance inst = byz(Config{.n = 7, .m = 1, .u = 4}, {2});
  inst.cycle();
  const ConditionReport first =
      check_conditions(inst.spec, inst.result.decisions);
  ASSERT_EQ(first.applied, Condition::kD1);
  ASSERT_TRUE(first.satisfied);
  ASSERT_EQ(first.value_class.size(), 5u);
  for (int i = 0; i < kWarmCycles; ++i) {
    (void)check_conditions(inst.spec, inst.result.decisions);
  }
  std::uint64_t news = 0;
  {
    const Counting counting;
    const ConditionReport report =
        check_conditions(inst.spec, inst.result.decisions);
    news = counting.news();
    EXPECT_TRUE(report.satisfied);
  }
  EXPECT_EQ(news, 1u);
}

TEST(Alloc, WarmSatisfiedCheckIntoAllocatesNothing) {
  // The same check into a held report: the value class reuses the
  // report's capacity, as the service's scratch report does.
  Instance inst = byz(Config{.n = 7, .m = 1, .u = 4}, {2});
  inst.cycle();
  ConditionReport report;
  for (int i = 0; i < kWarmCycles; ++i) {
    check_conditions_into(inst.spec, inst.result.decisions, report);
  }
  std::uint64_t news = 0;
  {
    const Counting counting;
    for (int i = 0; i < kCountedCycles; ++i) {
      check_conditions_into(inst.spec, inst.result.decisions, report);
    }
    news = counting.news();
  }
  EXPECT_EQ(news, 0u);
  EXPECT_EQ(report.applied, Condition::kD1);
  EXPECT_TRUE(report.satisfied);
  EXPECT_EQ(report.value_class.size(), 5u);
  EXPECT_TRUE(report.violators.empty());
}

constexpr std::uint64_t kStandingJobs = 8;

/// One cycle of admission-queue churn: 96 arrivals across the classes
/// behind a standing backlog, a deadline sweep, then paired head
/// admissions and shed victims back down to the backlog, so the FIFOs
/// grow, drain past their halves and compact without ever emptying.
void admission_cycle(service::AdmissionQueue& queue) {
  using service::AdmissionClass;
  for (std::uint64_t job = 0; job < 96; ++job) {
    service::QueuedJob queued;
    queued.job = job;
    if (job % 4 == 0) queued.deadline_at = static_cast<double>(job);
    queue.push(static_cast<AdmissionClass>(job % 3), queued);
  }
  queue.expire(48.0, [](AdmissionClass, const service::QueuedJob&) {});
  while (queue.size() > kStandingJobs) {
    queue.pop_front();
    (void)queue.pop_shed_victim();
  }
}

TEST(Alloc, WarmAdmissionQueueAllocatesNothing) {
  service::AdmissionQueue queue;
  for (std::uint64_t job = 0; job < kStandingJobs; ++job) {
    service::QueuedJob standing;
    standing.job = 1000 + job;
    queue.push(service::AdmissionClass::kNormal, standing);
  }
  admission_cycle(queue);
  std::uint64_t news = 0;
  {
    const Counting counting;
    for (int i = 0; i < kCountedCycles; ++i) admission_cycle(queue);
    news = counting.news();
  }
  EXPECT_EQ(news, 0u);
  EXPECT_EQ(queue.size(), kStandingJobs);
}

// `engine_runnable` over every (n, m) the command lines accept (n <= 64,
// m <= 11): the predicate and the predicted arena size are computed
// without building a layout or allocating, and they agree with each
// other and with the tree's recursive shape (the root plus n-1 subtrees
// over n-1 nodes, one level shallower).
TEST(Alloc, EngineBudgetGridAllocatesNothing) {
  constexpr int kMaxN = 64;
  constexpr int kMaxM = 11;
  constexpr std::uint64_t kSaturated =
      std::numeric_limits<std::uint64_t>::max();
  struct Cell {
    bool runnable = false;
    std::uint64_t slots = 0;
    std::uint64_t tree = 0;
    std::uint64_t subtree = 0;  // the tree over n-1 nodes, one level less
  };
  std::array<std::array<Cell, kMaxM + 1>, kMaxN + 1> grid{};
  std::uint64_t news = 0;
  {
    const Counting counting;
    for (int n = 2; n <= kMaxN; ++n) {
      for (int m = 0; m <= kMaxM; ++m) {
        const Config config{.n = n, .m = m, .u = m};
        const int depth = core::byz_depth(m);
        Cell& cell = grid[static_cast<std::size_t>(n)]
                         [static_cast<std::size_t>(m)];
        cell.runnable = config.engine_runnable();
        cell.slots = config.engine_slots();
        cell.tree = protocols::EigLayout::slot_count(n, depth);
        cell.subtree = protocols::EigLayout::slot_count(n - 1, depth - 1);
      }
    }
    news = counting.news();
  }
  EXPECT_EQ(news, 0u);

  for (int n = 2; n <= kMaxN; ++n) {
    for (int m = 0; m <= kMaxM; ++m) {
      const Cell& cell =
          grid[static_cast<std::size_t>(n)][static_cast<std::size_t>(m)];
      const auto children = static_cast<std::uint64_t>(n - 1);
      const bool tree_fits = cell.subtree != kSaturated &&
                             cell.subtree <= (kSaturated - 1) / children;
      EXPECT_EQ(cell.tree, tree_fits ? 1 + children * cell.subtree
                                     : kSaturated)
          << n << "," << m;
      const auto receivers = static_cast<std::uint64_t>(n);
      const bool arena_fits =
          cell.tree != kSaturated && cell.tree <= kSaturated / receivers;
      EXPECT_EQ(cell.slots, arena_fits ? receivers * cell.tree : kSaturated)
          << n << "," << m;
      EXPECT_EQ(cell.runnable,
                n >= 2 * m + 1 && cell.slots <= kEngineSlotBudget)
          << n << "," << m;
    }
  }
  // The two command lines that used to end in bad_alloc, and the widest
  // BYZ shapes the benches and tests run.
  EXPECT_FALSE(grid[23][11].runnable);
  EXPECT_FALSE(grid[30][9].runnable);
  EXPECT_EQ(grid[64][11].slots, kSaturated);
  EXPECT_TRUE(grid[16][1].runnable);
  EXPECT_TRUE(grid[10][3].runnable);
  EXPECT_TRUE(grid[13][4].runnable);

  // The refusal names the limit that failed.
  const std::string budget =
      UnsupportedConfig(Config{.n = 23, .m = 11, .u = 11}).what();
  EXPECT_NE(budget.find("budget of 16777216"), std::string::npos) << budget;
  const std::string floor =
      UnsupportedConfig(Config{.n = 2, .m = 1, .u = 1}).what();
  EXPECT_NE(floor.find("n >= 2m+1"), std::string::npos) << floor;
}

// ------------------------------------------------------------- spans --

/// bench_perf's span stream: an overloaded, fault-injected 4-shard
/// front-end, here offering `jobs` jobs and recording spans or not.
service::FrontendConfig span_stream_config(std::uint64_t jobs, bool record) {
  service::FrontendConfig config;
  config.shards = 4;
  config.route = service::RoutePolicy::kHashJobId;
  service::ServiceConfig& svc = config.service;
  svc.arrivals = service::ArrivalSpec::poisson(40.0);
  svc.offered = jobs;
  svc.cap = 24;
  svc.queue_cap = 32;
  svc.policy = service::OverloadPolicy::kShedOldest;
  svc.seed = 7;
  svc.mix = service::default_mix();
  for (auto& tmpl : svc.mix) {
    if (tmpl.admission == service::AdmissionClass::kLow) tmpl.deadline = 3.0;
  }
  svc.fault_plan.seed = 7;
  svc.fault_plan.rules.push_back(
      inject::LinkRule{kNoNode, 2, 1, inject::FaultKind::kDuplicate, 2});
  svc.fault_plan.rules.push_back(
      inject::LinkRule{1, kNoNode, 0, inject::FaultKind::kDelay, 2});
  svc.fault_plan.rates.duplicate = 0.05;
  svc.fault_plan.rates.delay = 0.10;
  svc.inject_every = 3;
  svc.record_spans = record;
  return config;
}

/// What runs 2 and 3 of a long-lived service or front-end allocate, and
/// how many spans run 3 returned.
struct WarmRuns {
  std::array<std::uint64_t, 2> news{};
  std::size_t spans = 0;
};

template <typename Service>
WarmRuns warm_runs(Service& service) {
  WarmRuns out;
  (void)service.run();
  for (std::uint64_t& news : out.news) {
    const Counting counting;
    const service::ServiceResult result = service.run();
    news = counting.news();
    out.spans = result.spans.size();
  }
  return out;
}

/// A recorded run and a quiet run of one stream do the same work, so
/// their allocations differ only by what recording costs. Warm, that is
/// the result's span set — its records, tag values and tag keys, each
/// sized once — and the run's list of shard logs, on runs 2 and 3 alike,
/// whatever the number of spans. (A run's own count drifts while a
/// long-lived service still meets new work: queue blocks, slots injected
/// for the first time, inboxes that grow.) A recorder that reserved or
/// grew its log afresh each run, or a set that grew its storage record
/// by record, would allocate more, and more again as the spans double.
template <typename Service, typename MakeConfig>
void expect_warm_span_runs_allocate_alike(const MakeConfig& make) {
  constexpr std::uint64_t kSpanVectors = 4;
  std::size_t spans = 0;
  for (const std::uint64_t jobs : {750u, 1500u}) {
    Service recording(make(jobs, true));
    Service quiet(make(jobs, false));
    const WarmRuns rec = warm_runs(recording);
    const WarmRuns base = warm_runs(quiet);
    for (std::size_t run = 0; run < rec.news.size(); ++run) {
      EXPECT_EQ(rec.news[run] - base.news[run], kSpanVectors)
          << jobs << " jobs, run " << run + 2;
    }
    EXPECT_EQ(base.spans, 0u);
    EXPECT_GT(rec.spans, spans) << jobs;
    spans = rec.spans;
  }
}

TEST(Alloc, WarmRecordedServiceRunsAllocateAsManyAtAnySpanCount) {
  expect_warm_span_runs_allocate_alike<service::AgreementService>(
      [](std::uint64_t jobs, bool record) {
        return span_stream_config(jobs, record).service;
      });
}

TEST(Alloc, WarmRecordedFrontendRunsAllocateAsManyAtAnySpanCount) {
  expect_warm_span_runs_allocate_alike<service::ServiceFrontend>(
      span_stream_config);
}

}  // namespace
}  // namespace da
