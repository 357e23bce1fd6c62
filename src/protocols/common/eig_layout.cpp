#include "protocols/common/eig_layout.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/path.hpp"

namespace da::protocols {

std::uint64_t EigLayout::slot_count(int n, int depth) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 0;
  std::uint64_t level = 1;  // level r holds (n-1)(n-2)...(n-r) slots
  for (int r = 0; r < depth; ++r) {
    if (r > 0) {
      const auto children = static_cast<std::uint64_t>(std::max(n - r, 0));
      if (children != 0 && level > kMax / children) return kMax;
      level *= children;
    }
    if (level > kMax - total) return kMax;
    total += level;
  }
  return total;
}

EigLayout::EigLayout(int n, int sender_rank, int depth)
    : n_(n), depth_(depth), sender_rank_(sender_rank) {
  DA_EXPECTS(n >= 2 && n <= 64);  // hop_mask is a 64-bit rank bitset
  DA_EXPECTS(sender_rank >= 0 && sender_rank < n);
  DA_EXPECTS(depth >= 1);
  DA_EXPECTS(static_cast<std::size_t>(depth) <= Path::kMaxLen);
  // Ordinals are 32-bit: a tree past that is refused before any allocation.
  DA_EXPECTS(slot_count(n, depth) <=
             std::numeric_limits<std::uint32_t>::max());

  // Level r holds the (n-1)(n-2)...(n-r) length-(r+1) relay chains.
  level_offset_.assign(static_cast<std::size_t>(depth) + 1, 0);
  for (int r = 1; r <= depth; ++r) {
    level_offset_[static_cast<std::size_t>(r)] =
        static_cast<std::uint32_t>(slot_count(n, r));
  }

  edge_.assign(this->size(), 0);
  hop_mask_.assign(this->size(), 0);
  edge_[0] = static_cast<std::uint8_t>(sender_rank);
  hop_mask_[0] = 1ULL << sender_rank;
  for (int r = 0; r + 1 < depth; ++r) {
    const std::uint32_t lo = level_offset(r);
    const std::uint32_t hi = level_offset(r + 1);
    for (std::uint32_t ord = lo; ord < hi; ++ord) {
      std::uint32_t child = child_begin(ord, r);
      const std::uint64_t mask = hop_mask_[ord];
      for (int rank = 0; rank < n; ++rank) {
        if ((mask >> rank) & 1u) continue;
        edge_[child] = static_cast<std::uint8_t>(rank);
        hop_mask_[child] = mask | (1ULL << rank);
        ++child;
      }
      DA_ENSURES(child == child_begin(ord, r) +
                              static_cast<std::uint32_t>(child_count(r)));
    }
  }
}

std::shared_ptr<const EigLayout> EigLayout::get(int n, int sender_rank,
                                                int depth) {
  const std::uint64_t key = (static_cast<std::uint64_t>(n) << 32) |
                            (static_cast<std::uint64_t>(sender_rank) << 16) |
                            static_cast<std::uint64_t>(depth);

  // Per-thread memo: sweep shards resolve the same few shapes over and
  // over; after the first lookup a shard never contends on the mutex.
  thread_local std::unordered_map<std::uint64_t,
                                  std::shared_ptr<const EigLayout>>
      local;
  if (const auto it = local.find(key); it != local.end()) return it->second;

  static std::mutex mutex;
  static std::unordered_map<std::uint64_t, std::shared_ptr<const EigLayout>>
      shared;
  static const obs::Counter built("protocol.eig.layouts_built");

  std::shared_ptr<const EigLayout> layout;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    auto& slot = shared[key];
    if (slot == nullptr) {
      slot = std::shared_ptr<const EigLayout>(
          new EigLayout(n, sender_rank, depth));
      built.add();
    }
    layout = slot;
  }
  local.emplace(key, layout);
  return layout;
}

}  // namespace da::protocols
