#include "core/checker.hpp"

#include <gtest/gtest.h>

namespace da {
namespace {

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.config = Config{.n = 5, .m = 1, .u = 2};
  spec.sender = 0;
  spec.sender_value = Value::of(10);
  return spec;
}

sim::Decisions decisions(std::initializer_list<Value> values) {
  sim::Decisions out;
  NodeId id = 0;
  for (const Value& v : values) out[id++] = v;
  return out;
}

TEST(Checker, D1Satisfied) {
  auto spec = base_spec();
  spec.faulty = {3};
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(10), Value::of(10),
                       Value::of(99), Value::of(10)}));
  EXPECT_EQ(report.applied, Condition::kD1);
  EXPECT_TRUE(report.satisfied);
  EXPECT_EQ(report.value_class.size(), 3u);  // nodes 1,2,4
  EXPECT_TRUE(report.violators.empty());
}

TEST(Checker, D1ViolatedByDefaultDecision) {
  auto spec = base_spec();
  spec.faulty = {3};
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(10), Value::def(),
                       Value::of(99), Value::of(10)}));
  EXPECT_EQ(report.applied, Condition::kD1);
  EXPECT_FALSE(report.satisfied);
  EXPECT_EQ(report.violators, std::vector<NodeId>{2});
}

TEST(Checker, D2SatisfiedOnAnyCommonValue) {
  auto spec = base_spec();
  spec.faulty = {0};  // sender faulty, f=1 <= m
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::of(77), Value::of(77),
                       Value::of(77), Value::of(77)}));
  EXPECT_EQ(report.applied, Condition::kD2);
  EXPECT_TRUE(report.satisfied);
}

TEST(Checker, D2SatisfiedOnCommonDefault) {
  auto spec = base_spec();
  spec.faulty = {0};
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::def(), Value::def(), Value::def(),
                       Value::def()}));
  EXPECT_EQ(report.applied, Condition::kD2);
  EXPECT_TRUE(report.satisfied);
  EXPECT_EQ(report.default_class.size(), 4u);
}

TEST(Checker, D2ViolatedBySplit) {
  auto spec = base_spec();
  spec.faulty = {0};
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::of(7), Value::of(7), Value::of(8),
                       Value::of(7)}));
  EXPECT_EQ(report.applied, Condition::kD2);
  EXPECT_FALSE(report.satisfied);
  EXPECT_EQ(report.violators.size(), 4u);
}

TEST(Checker, D3AllowsSenderValueAndDefaultOnly) {
  auto spec = base_spec();
  spec.faulty = {3, 4};  // f=2: m < f <= u
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(10), Value::def(),
                       Value::of(1), Value::of(2)}));
  EXPECT_EQ(report.applied, Condition::kD3);
  EXPECT_TRUE(report.satisfied);
  EXPECT_EQ(report.value_class, std::vector<NodeId>{1});
  EXPECT_EQ(report.default_class, std::vector<NodeId>{2});
}

TEST(Checker, D3ViolatedByThirdValue) {
  auto spec = base_spec();
  spec.faulty = {3, 4};
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(10), Value::of(11),
                       Value::of(1), Value::of(2)}));
  EXPECT_EQ(report.applied, Condition::kD3);
  EXPECT_FALSE(report.satisfied);
  EXPECT_EQ(report.violators, std::vector<NodeId>{2});
}

TEST(Checker, D4AllowsOneValuePlusDefault) {
  auto spec = base_spec();
  spec.faulty = {0, 3};  // sender faulty, f=2 in (m,u]
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::of(55), Value::def(),
                       Value::of(9), Value::of(55)}));
  EXPECT_EQ(report.applied, Condition::kD4);
  EXPECT_TRUE(report.satisfied);
  EXPECT_EQ(report.value_class.size(), 2u);
  EXPECT_EQ(report.default_class.size(), 1u);
}

TEST(Checker, D4ViolatedByTwoNonDefaultValues) {
  auto spec = base_spec();
  spec.faulty = {0, 3};
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::of(55), Value::of(56),
                       Value::of(9), Value::of(55)}));
  EXPECT_EQ(report.applied, Condition::kD4);
  EXPECT_FALSE(report.satisfied);
  EXPECT_FALSE(report.violators.empty());
}

TEST(Checker, BeyondUPromisesNothing) {
  auto spec = base_spec();
  spec.faulty = {2, 3, 4};  // f=3 > u=2
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(4), Value::of(5), Value::of(6),
                       Value::of(7)}));
  EXPECT_EQ(report.applied, Condition::kNone);
  EXPECT_TRUE(report.satisfied);
}

TEST(Checker, CorollaryCountsSenderWithItsValue) {
  auto spec = base_spec();
  spec.faulty = {3, 4};
  // Only node 1 decides the sender's value; with the fault-free sender that
  // class has 2 members >= m+1 = 2.
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(10), Value::def(),
                       Value::of(1), Value::of(1)}));
  EXPECT_TRUE(report.corollary_m_plus_1);
  EXPECT_EQ(report.largest_agreeing_class, 2);
}

TEST(Checker, CorollaryFailsWhenEveryoneScatters) {
  auto spec = base_spec();
  spec.config.m = 2;  // require classes of 3
  spec.config.u = 2;
  spec.faulty = {0, 4};
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::of(2), Value::of(2), Value::def(),
                       Value::of(9)}));
  // f=2 <= m, D.2 violated; corollary also fails (largest class = 2 < 3).
  EXPECT_FALSE(report.satisfied);
  EXPECT_FALSE(report.corollary_m_plus_1);
  EXPECT_EQ(report.largest_agreeing_class, 2);
}

TEST(Checker, DefaultSenderValueRejected) {
  auto spec = base_spec();
  spec.sender_value = Value::def();
  EXPECT_THROW((void)check_conditions(spec, decisions({Value::def(),
                                                       Value::def(),
                                                       Value::def(),
                                                       Value::def(),
                                                       Value::def()})),
               std::logic_error);
}

TEST(Checker, MissingDecisionRejected) {
  auto spec = base_spec();
  sim::Decisions partial;
  partial[1] = Value::of(10);
  EXPECT_THROW((void)check_conditions(spec, partial), std::logic_error);
}

TEST(Checker, ConditionNames) {
  EXPECT_STREQ(to_string(Condition::kD1), "D.1");
  EXPECT_STREQ(to_string(Condition::kD4), "D.4");
  EXPECT_STREQ(to_string(Condition::kNone), "none");
}

}  // namespace
}  // namespace da
