// Allocation pins for the hot paths that claim to be allocation-free once
// warm: one service instance's round cycle on the checkpoint/fork engine
// (restore, then dispatch_pending / process_round to the end, then
// finish_into) and the checker's `sim::Decisions` overloads.
//
// This file replaces the global `operator new` with one that counts the
// calls made on the calling thread while a `Counting` guard is alive, so
// it is built as its own executable (`da_alloc_tests`) and not under a
// sanitizer, whose runtime owns `operator new` (tests/CMakeLists.txt).

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/byz.hpp"
#include "core/checker.hpp"
#include "core/scenario.hpp"
#include "faults/adversaries.hpp"
#include "protocols/lamport/om.hpp"
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

}  // namespace
}  // namespace da
