// Self-test of the benchmark's own arithmetic: median and quartiles (which
// must match Python's statistics.quantiles, the method used to judge run
// spreads), the "ten samples beyond" tail-percentile rule, the fast-end
// reading of repeated rounds, and span self time. Run with
// `python3 perfbench/run.py --self-test`.

#include <cmath>
#include <cstdio>
#include <string>

#include "stats.hpp"
#include "tracer.hpp"

namespace {

int g_failures = 0;

void expect_near(double got, double want, const std::string& what) {
  if (std::fabs(got - want) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what.c_str(), got,
                 want);
    ++g_failures;
  }
}

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what.c_str());
    ++g_failures;
  }
}

void expect_quartiles(std::vector<double> values, double q1, double q2,
                      double q3, const std::string& what) {
  const auto q = perfbench::quartiles(std::move(values));
  expect_near(q[0], q1, what + " q1");
  expect_near(q[1], q2, what + " q2");
  expect_near(q[2], q3, what + " q3");
}

void test_median_and_quartiles() {
  using perfbench::median;
  expect_near(median({}), 0.0, "median of nothing");
  expect_near(median({4.0}), 4.0, "median of one");
  expect_near(median({3.0, 1.0, 2.0}), 2.0, "odd median");
  expect_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "even median");
  // Reference values from Python's statistics.quantiles(values, n=4).
  expect_quartiles({1, 2, 3, 4}, 1.25, 2.5, 3.75, "1..4");
  expect_quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, "1..10");
  expect_quartiles({5.0, 1.0}, 0.0, 3.0, 6.0, "two samples extrapolate");
  expect_quartiles({3, 1, 2}, 1.0, 2.0, 3.0, "three samples");
  expect_quartiles({0.5, 9, 2, 7, 7, 1, 3.5}, 1.0, 3.5, 7.0, "unsorted");
}

void test_tail_rule() {
  using perfbench::samples_needed;
  using perfbench::tail_percentile;
  expect(samples_needed(0.90) == 100, "p90 needs 100 samples");
  expect(samples_needed(0.99) == 1000, "p99 needs 1000 samples");
  expect(samples_needed(0.50) == 20, "p50 needs 20 samples");
  std::vector<double> values;
  for (int i = 1; i <= 99; ++i) values.push_back(i);
  expect(!tail_percentile(values, 0.90).has_value(),
         "p90 of 99 samples has only 9 beyond");
  values.push_back(100);
  const auto p90 = tail_percentile(values, 0.90);
  expect(p90.has_value(), "p90 of 100 samples is defined");
  expect_near(p90.value_or(-1), 90.0, "p90 nearest rank");
  // Exactly ten samples lie beyond the reported value.
  int beyond = 0;
  for (const double v : values) beyond += v > *p90 ? 1 : 0;
  expect(beyond == 10, "ten samples beyond p90");
}

void test_fast_end() {
  using perfbench::percentile;
  using perfbench::round_percentiles;
  expect_near(percentile({}, 0.1), 0.0, "percentile of nothing");
  // Nearest rank: the smallest value with a share q at or below it.
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  expect_near(percentile(ten, 0.10), 1.0, "p10 of 1..10");
  expect_near(percentile(ten, 0.11), 2.0, "p11 of 1..10");
  expect_near(percentile(ten, 0.90), 9.0, "p90 of 1..10");
  // Three rounds of two positions plus a partial round that is ignored:
  // position 0 reads 5, 1, 3 (p10: 1); position 1 reads 8, 9, 7 (p10: 7).
  const auto fast = round_percentiles({5, 8, 1, 9, 3, 7, 0}, 2, 0.10);
  expect(fast.size() == 2, "one value per position");
  expect_near(fast.size() == 2 ? fast[0] : -1, 1.0, "position 0 fast end");
  expect_near(fast.size() == 2 ? fast[1] : -1, 7.0, "position 1 fast end");
}

void test_self_time() {
  perfbench::Tracer tracer;
  const auto root_name = tracer.intern("root");
  const auto child_name = tracer.intern("child");
  expect(tracer.intern("root") == root_name, "intern is stable");
  // root [0,100]: children [10,30], [20,50] (overlapping: union 10..50)
  // and [60,70]; grandchild [62,65] inside the last child.
  const auto root = tracer.add(root_name, 1, perfbench::Tracer::kNoParent, 0,
                               100);
  tracer.add(child_name, 1, root, 10, 30);
  tracer.add(child_name, 1, root, 20, 50);
  const auto last = tracer.add(child_name, 1, root, 60, 70);
  tracer.add(child_name, 1, last, 62, 65);
  // A child sticking out of its parent counts only inside it.
  const auto other = tracer.add(root_name, 2, perfbench::Tracer::kNoParent,
                                200, 210);
  tracer.add(child_name, 2, other, 205, 230);

  const auto self = tracer.self_ns();
  expect_near(static_cast<double>(self[0]), 100 - 40 - 10, "root self");
  expect_near(static_cast<double>(self[3]), 10 - 3, "nested child self");
  expect_near(static_cast<double>(self[5]), 5, "clipped child");

  // Spans opened through the RAII scope nest by open order.
  perfbench::Tracer live;
  const auto outer = live.intern("outer");
  const auto inner = live.intern("inner");
  {
    const perfbench::Scope a(&live, outer, 7);
    const perfbench::Scope b(&live, inner, 7);
  }
  expect(live.spans().size() == 2 && live.spans()[1].parent == 0 &&
             live.spans()[1].op == 7,
         "scopes nest");
  expect(live.self_ns()[0] >= 0, "live self time is non-negative");
  const perfbench::Scope off(nullptr, outer, 0);  // a null tracer is a no-op
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_tail_rule();
  test_fast_end();
  test_self_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: OK\n");
  return 0;
}
