#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace da::protocols {

/// The dense memory layout of one pruned EIG tree, shared by every
/// receiver of an instance (and, through the process-wide cache, by every
/// instance of the same shape across sweep shards).
///
/// A layout is a pure function of (n, sender_rank, depth), expressed in
/// *rank space*: participants are identified by their index in the sorted
/// node list, so trees over {0..n-1} and over any other n-element id set
/// share one layout. Slots are numbered level by level:
///
///   level r        paths of length r+1 (the root [sender] is level 0)
///   level_offset   level r occupies ordinals [offset(r), offset(r+1))
///   child block    the node at in-level position k of level r owns the
///                  contiguous block of child_count(r) = n-1-r slots
///                  starting at offset(r+1) + k*(n-1-r), ordered by
///                  ascending child rank
///
/// Two per-slot tables make traversals index-only: `edge(ord)` is the rank
/// of the slot's last hop, and `hop_mask(ord)` is the bitset of every rank
/// on its path (hence the n <= 64 limit). Both are receiver-independent,
/// which is what lets all n processes of an instance share the layout:
/// a receiver prunes "paths through me" by testing its own rank against
/// the mask, at resolve time, without owning a private tree shape.
class EigLayout {
 public:
  /// Cached lookup: builds the layout on first use of a shape and returns
  /// the shared instance afterwards. Thread-safe; each thread additionally
  /// memoizes its last lookups, so sweep shards hitting the same (n,
  /// sender, depth) over millions of executions never touch the shared
  /// mutex in steady state.
  [[nodiscard]] static std::shared_ptr<const EigLayout> get(int n,
                                                            int sender_rank,
                                                            int depth);

  /// Slots of the tree over n nodes at `depth`, computed without building
  /// it: 1 + (n-1) + (n-1)(n-2) + ... over `depth` levels. Saturates at
  /// UINT64_MAX when the count does not fit.
  [[nodiscard]] static std::uint64_t slot_count(int n, int depth);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] int sender_rank() const { return sender_rank_; }

  /// Total number of slots (all levels).
  [[nodiscard]] std::uint32_t size() const { return level_offset_.back(); }

  /// First ordinal of level `r`; `level_offset(depth)` == size().
  [[nodiscard]] std::uint32_t level_offset(int r) const {
    return level_offset_[static_cast<std::size_t>(r)];
  }

  /// Children per slot of level `r` (one per rank not yet on the path).
  [[nodiscard]] int child_count(int r) const { return n_ - 1 - r; }

  /// First ordinal of the child block of the level-`r` slot `ord`.
  [[nodiscard]] std::uint32_t child_begin(std::uint32_t ord, int r) const {
    return level_offset(r + 1) +
           (ord - level_offset(r)) *
               static_cast<std::uint32_t>(child_count(r));
  }

  /// Rank of the slot's last hop (the relayer the slot's value came from).
  [[nodiscard]] int edge(std::uint32_t ord) const { return edge_[ord]; }

  /// Bitset of every rank on the slot's path, sender included.
  [[nodiscard]] std::uint64_t hop_mask(std::uint32_t ord) const {
    return hop_mask_[ord];
  }

  /// True if `rank` lies on the slot's path.
  [[nodiscard]] bool contains(std::uint32_t ord, int rank) const {
    return (hop_mask_[ord] >> rank) & 1u;
  }

  EigLayout(const EigLayout&) = delete;
  EigLayout& operator=(const EigLayout&) = delete;

 private:
  EigLayout(int n, int sender_rank, int depth);

  int n_;
  int depth_;
  int sender_rank_;
  std::vector<std::uint32_t> level_offset_;  // depth+1 entries
  std::vector<std::uint8_t> edge_;           // per slot: rank of last hop
  std::vector<std::uint64_t> hop_mask_;      // per slot: ranks on the path
};

}  // namespace da::protocols
