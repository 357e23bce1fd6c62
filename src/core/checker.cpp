#include "core/checker.hpp"

#include <algorithm>
#include <span>
#include <utility>

namespace da {

const char* to_string(Condition c) {
  switch (c) {
    case Condition::kD1: return "D.1";
    case Condition::kD2: return "D.2";
    case Condition::kD3: return "D.3";
    case Condition::kD4: return "D.4";
    case Condition::kNone: return "none";
  }
  return "?";
}

void check_conditions_into(const ScenarioSpec& spec,
                           const sim::Decisions& decisions,
                           ConditionReport& report) {
  spec.validate();
  // Reset to a default report, keeping the vectors' and the text's
  // capacity.
  report.satisfied = true;
  report.value_class.clear();
  report.default_class.clear();
  report.violators.clear();
  report.corollary_m_plus_1 = false;
  report.largest_agreeing_class = 0;
  report.detail.clear();

  const int f = spec.f();
  const int m = spec.config.m;
  const int u = spec.config.u;
  const bool sender_ok = !spec.sender_faulty();

  // Classify the governing condition.
  if (f <= m) {
    report.applied = sender_ok ? Condition::kD1 : Condition::kD2;
  } else if (f <= u) {
    report.applied = sender_ok ? Condition::kD3 : Condition::kD4;
  } else {
    report.applied = Condition::kNone;
  }

  // Partition fault-free receivers by decision. Flat scratch instead of a
  // value-keyed map — this runs once per execution inside the exhaustive
  // searches — reused thread-locally so the steady state allocates
  // nothing; sorted by Value afterwards to keep exactly the iteration
  // order the map gave (reports list classes, and violators within an
  // unsatisfied report, in ascending Value order).
  static thread_local std::vector<std::pair<Value, std::vector<NodeId>>>
      class_scratch;
  std::size_t class_count = 0;
  for (NodeId r = 0; r < spec.config.n; ++r) {
    if (r == spec.sender || spec.is_faulty(r)) continue;  // fault-free only
    const Value v = decisions.at(r);
    std::size_t i = 0;
    while (i < class_count && class_scratch[i].first != v) ++i;
    if (i == class_count) {
      if (class_count == class_scratch.size()) class_scratch.emplace_back();
      class_scratch[i].first = v;
      class_scratch[i].second.clear();  // keeps capacity
      ++class_count;
    }
    class_scratch[i].second.push_back(r);
  }
  std::sort(class_scratch.begin(),
            class_scratch.begin() + static_cast<std::ptrdiff_t>(class_count),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::span<const std::pair<Value, std::vector<NodeId>>> classes(
      class_scratch.data(), class_count);

  switch (report.applied) {
    case Condition::kD1: {
      // Everyone must decide the sender's value.
      for (const auto& [value, members] : classes) {
        if (value == spec.sender_value) {
          report.value_class.assign(members.begin(), members.end());
        } else {
          report.violators.insert(report.violators.end(), members.begin(),
                                  members.end());
        }
      }
      report.satisfied = report.violators.empty();
      if (!report.satisfied) report.detail = "D.1: not all decided sender's value";
      break;
    }
    case Condition::kD2: {
      // One identical value (any value, default included).
      report.satisfied = classes.size() <= 1;
      if (!classes.empty()) {
        const auto& [value, members] = *classes.begin();
        if (value.is_default()) {
          report.default_class.assign(members.begin(), members.end());
        } else {
          report.value_class.assign(members.begin(), members.end());
        }
      }
      if (!report.satisfied) {
        report.detail = "D.2: fault-free receivers decided " +
                        std::to_string(classes.size()) + " distinct values";
        for (const auto& [value, members] : classes) {
          report.violators.insert(report.violators.end(), members.begin(),
                                  members.end());
        }
      }
      break;
    }
    case Condition::kD3: {
      // Each fault-free receiver decides the sender's value or V_d.
      for (const auto& [value, members] : classes) {
        if (value == spec.sender_value) {
          report.value_class.assign(members.begin(), members.end());
        } else if (value.is_default()) {
          report.default_class.assign(members.begin(), members.end());
        } else {
          report.violators.insert(report.violators.end(), members.begin(),
                                  members.end());
        }
      }
      report.satisfied = report.violators.empty();
      if (!report.satisfied) {
        report.detail = "D.3: some fault-free receiver decided a value that "
                        "is neither the sender's nor V_d";
      }
      break;
    }
    case Condition::kD4: {
      // At most one non-default value among fault-free receivers.
      int non_default_values = 0;
      for (const auto& [value, members] : classes) {
        if (value.is_default()) {
          report.default_class.assign(members.begin(), members.end());
        } else {
          ++non_default_values;
          if (non_default_values == 1) {
            report.value_class.assign(members.begin(), members.end());
          } else {
            report.violators.insert(report.violators.end(), members.begin(),
                                    members.end());
          }
        }
      }
      report.satisfied = non_default_values <= 1;
      if (!report.satisfied) {
        report.detail = "D.4: fault-free receivers decided " +
                        std::to_string(non_default_values) +
                        " distinct non-default values";
      }
      break;
    }
    case Condition::kNone:
      report.satisfied = true;  // nothing promised beyond u faults
      break;
  }

  // Section 2 corollary: largest group of fault-free nodes (sender included,
  // agreeing on its own value when fault-free) deciding one identical value.
  bool sender_value_seen = false;
  for (const auto& [value, members] : classes) {
    int count = static_cast<int>(members.size());
    if (sender_ok && value == spec.sender_value) {
      ++count;
      sender_value_seen = true;
    }
    report.largest_agreeing_class =
        std::max(report.largest_agreeing_class, count);
  }
  if (sender_ok && !sender_value_seen) {
    report.largest_agreeing_class = std::max(report.largest_agreeing_class, 1);
  }
  report.corollary_m_plus_1 = report.largest_agreeing_class >= m + 1;
}

ConditionReport check_conditions(const ScenarioSpec& spec,
                                 const sim::Decisions& decisions) {
  ConditionReport report;
  check_conditions_into(spec, decisions, report);
  return report;
}

}  // namespace da
