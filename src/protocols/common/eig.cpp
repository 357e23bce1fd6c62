#include "protocols/common/eig.hpp"

#include <algorithm>

#include "protocols/common/vote.hpp"
#include "util/contracts.hpp"

namespace da::protocols {

EigTree::EigTree(NodeId self, NodeId sender, std::vector<NodeId> nodes,
                 int depth)
    : self_(self), sender_(sender), nodes_(std::move(nodes)), depth_(depth) {
  DA_EXPECTS(depth_ >= 1);
  DA_EXPECTS(static_cast<std::size_t>(depth_) <= Path::kMaxLen);
  std::sort(nodes_.begin(), nodes_.end());
  DA_EXPECTS(!nodes_.empty() && nodes_.front() >= 0);
  DA_EXPECTS(Path::fits(nodes_.back()));
  DA_EXPECTS(std::adjacent_find(nodes_.begin(), nodes_.end()) ==
             nodes_.end());

  rank_of_.assign(static_cast<std::size_t>(nodes_.back()) + 1, -1);
  for (std::size_t r = 0; r < nodes_.size(); ++r) {
    rank_of_[static_cast<std::size_t>(nodes_[r])] =
        static_cast<std::int16_t>(r);
  }
  DA_EXPECTS(is_participant(sender_));
  DA_EXPECTS(is_participant(self_));
  const int sender_rank = rank_of_[static_cast<std::size_t>(sender_)];
  self_bit_ = std::uint64_t{1} << rank_of_[static_cast<std::size_t>(self_)];
  if (self_ != sender_) {
    exclude_rank_ = rank_of_[static_cast<std::size_t>(self_)];
  }

  layout_ = EigLayout::get(static_cast<int>(nodes_.size()), sender_rank,
                           depth_);
  values_.assign(layout_->size(), Value::def());
  present_.assign(layout_->size(), 0);
}

std::uint32_t EigTree::ordinal_of(const Path& path) const {
  std::uint64_t mask = 0;
  const std::uint32_t ord = walk(path, mask);
  DA_EXPECTS(ord != kNoSlot);
  return ord;
}

void EigTree::set(const Path& path, Value v) {
  const std::uint32_t ord = ordinal_of(path);
  DA_EXPECTS(present_[ord] == 0);  // first (and only) write per slot
  values_[ord] = v;
  present_[ord] = 1;
  ++stored_;
}

Value EigTree::get(const Path& path) const { return values_[ordinal_of(path)]; }

bool EigTree::has(const Path& path) const {
  return present_[ordinal_of(path)] != 0;
}

Value EigTree::resolve(const Resolver& rule) const {
  const EigLayout& layout = *layout_;
  if (depth_ == 1) return values_[0];

  const int n = static_cast<int>(nodes_.size());
  // Resolved values of the level below the one being folded, indexed by
  // in-level position. Leaves resolve to their stored (or V_d) values.
  // Scratch buffers are thread-local so the per-execution resolve (once
  // per process, the checkpointed searches' second-hottest call) is
  // allocation-free at steady state; resolve never re-enters itself.
  static thread_local std::vector<Value> below;
  static thread_local std::vector<Value> folded;
  static thread_local std::vector<Value> w;
  below.assign(values_.begin() + layout.level_offset(depth_ - 1),
               values_.begin() + layout.level_offset(depth_));
  w.reserve(static_cast<std::size_t>(n));

  for (int r = depth_ - 2; r >= 0; --r) {
    const std::uint32_t lo = layout.level_offset(r);
    const std::uint32_t hi = layout.level_offset(r + 1);
    const int kids = layout.child_count(r);
    folded.assign(hi - lo, Value::def());
    for (std::uint32_t ord = lo; ord < hi; ++ord) {
      // Paths through this receiver are never consumed by an ancestor
      // (the recursion skips j == self), so skip the whole subtree.
      if (exclude_rank_ >= 0 && layout.contains(ord, exclude_rank_)) {
        continue;
      }
      // w_1: the value this receiver heard directly through the path;
      // w_j: resolved values of the other sub-receivers, ascending rank.
      w.clear();
      w.push_back(values_[ord]);
      const std::uint32_t child0 = layout.child_begin(ord, r);
      for (int k = 0; k < kids; ++k) {
        const std::uint32_t child = child0 + static_cast<std::uint32_t>(k);
        if (layout.edge(child) == exclude_rank_) continue;
        w.push_back(below[child - hi]);
      }
      // Sub-instance size: the recursion drops one node per level.
      const int n_sub = n - r;
      DA_ENSURES(static_cast<int>(w.size()) == n_sub - 1);
      folded[ord - lo] = rule.resolve(n_sub, w);
    }
    below.swap(folded);
  }
  return below[0];
}

ByzResolver::ByzResolver(int m) : m_(m) { DA_EXPECTS(m >= 0); }

Value ByzResolver::resolve(int n_sub, std::span<const Value> w) const {
  const int alpha = n_sub - 1 - m_;
  DA_EXPECTS(alpha >= 1);
  return vote(w, static_cast<std::size_t>(alpha));
}

Value MajorityResolver::resolve(int n_sub, std::span<const Value> w) const {
  (void)n_sub;
  return majority(w);
}

std::uint64_t eig_message_count(int n, int depth) {
  DA_EXPECTS(n >= 2 && depth >= 1);
  std::uint64_t total = 0;
  std::uint64_t level = 1;
  for (int r = 1; r <= depth && r < n; ++r) {
    level *= static_cast<std::uint64_t>(n - r);
    total += level;
  }
  return total;
}

}  // namespace da::protocols
