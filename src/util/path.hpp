#pragma once

#include <algorithm>
#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>

#include "util/contracts.hpp"
#include "util/ids.hpp"

namespace da {

/// A relay chain for EIG-style protocols: the sequence of node ids a value
/// travelled through, starting at the original sender. Paths in BYZ(t,m)
/// never repeat a node and never exceed m+1 hops, so a small inline array
/// avoids per-message heap allocation in the simulator's hot path.
///
/// Each hop is stored as one signed byte (`Hop`), so a path is 13 bytes
/// and a `sim::Message` 56 (88 with 32-bit hops). The API takes
/// and returns `NodeId`; ids outside [kMinHop, kMaxHop] cannot be stored
/// (`push_back` is a contract violation), which is why the protocols that
/// build paths (`EigTree`, `SmProcess`) reject such participants at
/// construction instead of failing mid-round. EIG's layout caps an
/// instance at 64 nodes anyway. Iteration yields the stored hops, which
/// widen to the same `NodeId` values; `hash()` is the same function of
/// those values as over 32-bit storage.
class Path {
 public:
  using Hop = std::int8_t;
  static constexpr std::size_t kMaxLen = 12;
  static constexpr NodeId kMinHop = std::numeric_limits<Hop>::min();
  static constexpr NodeId kMaxHop = std::numeric_limits<Hop>::max();

  /// True if `id` can be stored as a hop.
  [[nodiscard]] static constexpr bool fits(NodeId id) noexcept {
    return id >= kMinHop && id <= kMaxHop;
  }

  constexpr Path() noexcept = default;

  Path(std::initializer_list<NodeId> ids) {
    DA_EXPECTS(ids.size() <= kMaxLen);
    for (NodeId id : ids) push_back(id);
  }

  [[nodiscard]] constexpr std::size_t size() const noexcept { return len_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return len_ == 0; }

  [[nodiscard]] constexpr NodeId operator[](std::size_t i) const noexcept {
    return nodes_[i];
  }

  [[nodiscard]] constexpr NodeId front() const noexcept { return nodes_[0]; }
  [[nodiscard]] constexpr NodeId back() const noexcept {
    return nodes_[len_ - 1];
  }

  void push_back(NodeId id) {
    DA_EXPECTS(len_ < kMaxLen);
    DA_EXPECTS(fits(id));
    nodes_[len_++] = static_cast<Hop>(id);
  }

  void pop_back() {
    DA_EXPECTS(len_ > 0);
    --len_;
  }

  [[nodiscard]] bool contains(NodeId id) const noexcept {
    return fits(id) &&
           std::find(begin(), end(), static_cast<Hop>(id)) != end();
  }

  /// All elements pairwise distinct?
  [[nodiscard]] bool distinct() const noexcept {
    for (std::size_t i = 0; i < len_; ++i)
      for (std::size_t j = i + 1; j < len_; ++j)
        if (nodes_[i] == nodes_[j]) return false;
    return true;
  }

  /// A copy of this path with `id` appended.
  [[nodiscard]] Path extended(NodeId id) const {
    Path p = *this;
    p.push_back(id);
    return p;
  }

  [[nodiscard]] const Hop* begin() const noexcept { return nodes_.data(); }
  [[nodiscard]] const Hop* end() const noexcept { return nodes_.data() + len_; }

  friend bool operator==(const Path& a, const Path& b) noexcept {
    return a.len_ == b.len_ &&
           std::equal(a.begin(), a.end(), b.begin());
  }

  /// Lexicographic order (used for deterministic iteration in maps).
  friend std::strong_ordering operator<=>(const Path& a,
                                          const Path& b) noexcept {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

  [[nodiscard]] std::string to_string() const {
    std::string s = "[";
    for (std::size_t i = 0; i < len_; ++i) {
      if (i) s += ",";
      s += std::to_string(nodes_[i]);
    }
    return s + "]";
  }

  [[nodiscard]] std::size_t hash() const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < len_; ++i) {
      h ^= static_cast<std::uint64_t>(nodes_[i]) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h ^ len_);
  }

 private:
  std::array<Hop, kMaxLen> nodes_{};
  std::uint8_t len_ = 0;
};

}  // namespace da

template <>
struct std::hash<da::Path> {
  std::size_t operator()(const da::Path& p) const noexcept { return p.hash(); }
};
