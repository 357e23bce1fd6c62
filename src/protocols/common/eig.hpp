#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "protocols/common/eig_layout.hpp"
#include "util/ids.hpp"
#include "util/path.hpp"
#include "util/value.hpp"

namespace da::protocols {

/// Resolution rule applied when folding an EIG (exponential information
/// gathering) tree bottom-up. `n_sub` is the number of nodes participating
/// in the sub-instance rooted at the path being resolved — exactly the `n`
/// of the recursive call BYZ(t,m) that the paper's algorithm would have made
/// there — and `w` are the n_sub-1 values of step 3.
class Resolver {
 public:
  virtual ~Resolver() = default;
  [[nodiscard]] virtual Value resolve(int n_sub,
                                      std::span<const Value> w) const = 0;
};

/// The message tree of a recursive agreement protocol, from one receiver's
/// point of view.
///
/// The recursion of BYZ(t,m) (and of Lamport's OM(m)) unfolds into m+1
/// communication rounds: a value relayed through the chain of distinct
/// nodes p_0=sender, p_1, ..., p_r is stored at path [p_0,...,p_r]. A slot
/// that was never filled (omitted message) reads as the default value V_d —
/// assumption (b) of Section 4: the absence of a message can be detected.
///
/// Storage is a flat arena: the shared `EigLayout` maps each admissible
/// path to a dense ordinal (level-major, children contiguous per parent),
/// values live in one contiguous vector preinitialized to V_d, and a
/// presence bitmap backs `has()` and the first-write contract. A receiver
/// turns a delivered path into its ordinal with one `admit` walk, which
/// also rejects every malformed path. `set`, `get` and `has` require
/// structurally admissible paths — rooted at the sender, within depth,
/// pairwise-distinct participant hops — and treat malformed ones as
/// contract violations, not silent V_d reads.
///
/// `resolve` then computes the receiver's decision exactly as step 3 of
/// BYZ(t,m): at an internal path sigma, the receiver's value vector is its
/// own directly-received value for sigma plus the recursively resolved
/// values of the sub-senders j (j not in sigma, j != self), folded with the
/// supplied rule. The fold is an iterative bottom-up pass over the arena
/// (two level-sized scratch buffers, no recursion, no per-node Path
/// copies or hashing).
class EigTree {
 public:
  /// `nodes` lists every participant (sender included); `depth` is the
  /// number of rounds (maximum path length). Every id must fit a path hop
  /// (`Path::fits`), so no relay can fail mid-round.
  EigTree(NodeId self, NodeId sender, std::vector<NodeId> nodes, int depth);

  /// `admit`'s "no slot" ordinal.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// The receive walk: the arena ordinal of a delivered `path`, or kNoSlot
  /// if this receiver must ignore it — not rooted at the sender, deeper
  /// than the tree, a hop that is not a participant or repeats, or a hop
  /// through this receiver. On success `mask` is the bitset of the ranks
  /// on the path (`EigLayout::hop_mask` of the ordinal). One pass over the
  /// hops does both the validation and the ordinal arithmetic.
  [[nodiscard]] std::uint32_t admit(const Path& path,
                                    std::uint64_t& mask) const;

  /// Stores a received value. Writing a slot twice is a contract
  /// violation: receivers deduplicate deliveries upstream (`has()`), so a
  /// second write can only be a protocol bug and must not be masked.
  void set(const Path& path, Value v);

  /// Stores `v` at an `admit`ted ordinal and returns true if the slot was
  /// empty; returns false (leaving the first-written value) if it was
  /// already filled. This is the receive hot path's duplicate check.
  bool set_if_absent(std::uint32_t ordinal, Value v);

  /// Value at `path`; V_d if never set.
  [[nodiscard]] Value get(const Path& path) const;

  [[nodiscard]] bool has(const Path& path) const;

  /// Fold the tree with `rule` starting from the root path [sender].
  [[nodiscard]] Value resolve(const Resolver& rule) const;

  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] std::size_t stored() const { return stored_; }
  [[nodiscard]] const std::vector<NodeId>& nodes() const { return nodes_; }

  /// The ranks a relay of an admitted path (rank mask `mask`) goes to:
  /// every participant off the path except this receiver. Rank r is
  /// `nodes()[r]`, so ascending ranks are ascending ids.
  [[nodiscard]] std::uint64_t relay_ranks(std::uint64_t mask) const {
    return (~std::uint64_t{0} >> (64 - nodes_.size())) & ~(mask | self_bit_);
  }

  /// True if `id` is a participant (O(1) rank-table lookup).
  [[nodiscard]] bool is_participant(NodeId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < rank_of_.size() &&
           rank_of_[static_cast<std::size_t>(id)] >= 0;
  }

  /// The shared per-(n, sender, depth) arena layout (diagnostics/tests).
  [[nodiscard]] const EigLayout& layout() const { return *layout_; }

 private:
  /// The hop walk shared by `admit` and `ordinal_of`: the ordinal of a
  /// structurally admissible path (and its rank mask), else kNoSlot.
  [[nodiscard]] std::uint32_t walk(const Path& path,
                                   std::uint64_t& mask) const;
  /// `walk` for the contract API: a malformed path is a violation.
  [[nodiscard]] std::uint32_t ordinal_of(const Path& path) const;

  NodeId self_;
  NodeId sender_;
  std::vector<NodeId> nodes_;
  int depth_;
  /// Rank this receiver prunes at resolve time, or -1 when self == sender
  /// (the sender excludes nobody — it never relays through itself anyway).
  int exclude_rank_ = -1;
  std::uint64_t self_bit_ = 0;  // this receiver's rank bit (`admit`)
  std::vector<std::int16_t> rank_of_;  // NodeId -> rank in nodes_, -1 unknown
  std::shared_ptr<const EigLayout> layout_;
  std::vector<Value> values_;          // arena, V_d where never set
  std::vector<std::uint8_t> present_;  // backs has() / first-write contract
  std::size_t stored_ = 0;
};

// The receive hot path, defined here so `EigProcess::on_round` compiles it
// in place.

inline std::uint32_t EigTree::walk(const Path& path,
                                   std::uint64_t& mask) const {
  const std::size_t len = path.size();
  if (len == 0 || len > static_cast<std::size_t>(depth_) ||
      path.front() != sender_) {
    return kNoSlot;
  }
  const EigLayout& layout = *layout_;
  std::uint64_t seen = std::uint64_t{1} << layout.sender_rank();
  std::uint32_t ord = 0;
  for (std::size_t i = 1; i < len; ++i) {
    const NodeId hop = path[i];
    if (!is_participant(hop)) return kNoSlot;
    const int rank = rank_of_[static_cast<std::size_t>(hop)];
    const std::uint64_t bit = std::uint64_t{1} << rank;
    if ((seen & bit) != 0) return kNoSlot;  // hops pairwise distinct
    // Child index = rank's position among the ranks not yet on the path.
    const int child = rank - std::popcount(seen & (bit - 1));
    ord = layout.child_begin(ord, static_cast<int>(i) - 1) +
          static_cast<std::uint32_t>(child);
    seen |= bit;
  }
  mask = seen;
  return ord;
}

inline std::uint32_t EigTree::admit(const Path& path,
                                    std::uint64_t& mask) const {
  const std::uint32_t ord = walk(path, mask);
  return ord != kNoSlot && (mask & self_bit_) == 0 ? ord : kNoSlot;
}

inline bool EigTree::set_if_absent(std::uint32_t ordinal, Value v) {
  if (present_[ordinal] != 0) return false;
  values_[ordinal] = v;
  present_[ordinal] = 1;
  ++stored_;
  return true;
}

/// BYZ(t,m)'s rule: VOTE(n_sub - 1 - m, n_sub - 1). The fixed `m` threads
/// through every level of the recursion (the paper: "the values of n and t
/// change at each level of the recursion, however, the value of m remains
/// fixed").
class ByzResolver final : public Resolver {
 public:
  explicit ByzResolver(int m);
  [[nodiscard]] Value resolve(int n_sub,
                              std::span<const Value> w) const override;

 private:
  int m_;
};

/// Lamport OM(m)'s rule: simple majority, default on no-majority.
class MajorityResolver final : public Resolver {
 public:
  [[nodiscard]] Value resolve(int n_sub,
                              std::span<const Value> w) const override;
};

/// Point-to-point messages of one EIG instance with `n` nodes unfolding
/// over `depth` rounds and no omissions: round r carries one message per
/// length-r relay chain of distinct nodes starting at the sender, i.e.
/// sum over r in [1, depth] of (n-1)(n-2)...(n-r). Every EIG-shaped
/// protocol's analytic count — BYZ(t,m), OM(m), crusader, IC — is this
/// formula at its depth (see byz_message_count / om_message_count /
/// crusader_message_count / ic_message_count).
[[nodiscard]] std::uint64_t eig_message_count(int n, int depth);

}  // namespace da::protocols
