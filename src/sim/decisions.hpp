#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/ids.hpp"
#include "util/value.hpp"

namespace da::sim {

/// One decision per node, stored as a flat vector sorted by NodeId.
///
/// The one decision container: every runtime's `RunResult` carries one,
/// and every checker (D.1-D.4, OM, crusader, degradable IC) and the
/// differential harness read it as is. A sorted vector keeps the
/// per-execution allocation to one contiguous block, reused across
/// forks, and makes lookups a branch-predictable binary search. It reads
/// like a node-keyed map (`at`, `find`, `operator[]`, iteration over
/// `std::pair<NodeId, Value>` in NodeId order) but converts to none.
class Decisions {
 public:
  using value_type = std::pair<NodeId, Value>;
  using const_iterator = std::vector<value_type>::const_iterator;

  Decisions() = default;

  /// Value for `id`; inserts V_d if absent (map-style upsert).
  Value& operator[](NodeId id) {
    const auto it = lower_bound(id);
    if (it != entries_.end() && it->first == id) return it->second;
    return entries_.insert(it, {id, Value::def()})->second;
  }

  /// Value for `id`; contract violation if absent.
  [[nodiscard]] const Value& at(NodeId id) const {
    const Value* v = find(id);
    DA_EXPECTS(v != nullptr);
    return *v;
  }

  /// Pointer to the value for `id`, or nullptr if absent.
  [[nodiscard]] const Value* find(NodeId id) const {
    const auto it = lower_bound(id);
    return it != entries_.end() && it->first == id ? &it->second : nullptr;
  }

  [[nodiscard]] bool contains(NodeId id) const { return find(id) != nullptr; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }  // keeps capacity: forks reuse storage

  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  friend bool operator==(const Decisions&, const Decisions&) = default;

 private:
  [[nodiscard]] std::vector<value_type>::iterator lower_bound(NodeId id) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const value_type& e, NodeId key) { return e.first < key; });
  }
  [[nodiscard]] const_iterator lower_bound(NodeId id) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const value_type& e, NodeId key) { return e.first < key; });
  }

  std::vector<value_type> entries_;
};

}  // namespace da::sim
