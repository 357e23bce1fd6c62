#pragma once

#include <cstdint>
#include <vector>

namespace da::sweep {

/// A contiguous range of global scenario ordinals, scanned in ascending
/// order by exactly one shard task.
struct ShardRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // exclusive

  [[nodiscard]] std::uint64_t size() const { return end - begin; }
};

/// Deterministic partition of the global ordinal space [0, total) into
/// contiguous shards.
///
/// The plan is a pure function of the enumeration space — never of the
/// thread count — so a sweep's canonical result (first violation ordinal,
/// canonical execution count) is reproducible for any `--jobs` value: the
/// shards are simply claimed by however many threads scan.
///
/// Behaviour-enumeration segments are split at *high-order base-4 digit*
/// boundaries (`append_pow4`): a 4^s-sized segment becomes 4^d blocks of
/// 4^(s-d) counters each, i.e. every behaviour inside a block shares its d
/// leading 4-ary digits and blocks enumerate those digits in ascending
/// order. Scenario-granular segments (adversary-family search, fuzz) use
/// `append_even`.
class ShardPlan {
 public:
  /// Target number of ordinals per shard used by the `append_*` helpers
  /// when the caller does not override it. A fixed constant (not derived
  /// from the job count) keeps plans identical across `--jobs` values
  /// while leaving enough shards for the pool's threads to balance skew.
  static constexpr std::uint64_t kDefaultBlock = 4096;

  /// Appends a segment of 4^slots ordinals, split at high-order digit
  /// boundaries into blocks of 4^k ordinals where 4^k is the largest
  /// power of four <= max(1, target_block) (and <= the segment itself).
  /// Returns the segment's base ordinal.
  std::uint64_t append_pow4(std::uint64_t slots,
                            std::uint64_t target_block = kDefaultBlock);

  /// Appends a segment of `count` ordinals split into near-equal
  /// contiguous blocks of at most max(1, target_block) ordinals.
  /// Returns the segment's base ordinal.
  std::uint64_t append_even(std::uint64_t count,
                            std::uint64_t target_block = kDefaultBlock);

  /// Advances the ordinal space by `count` without creating any shard — a
  /// gap no worker ever scans. Quotiented enumerations use this to leave
  /// out whole segments while keeping every remaining shard's global
  /// ordinals pinned to the unreduced space. Returns the gap's base.
  std::uint64_t skip(std::uint64_t count);

  /// Convenience: a plan that is one even segment over [0, total).
  [[nodiscard]] static ShardPlan even(std::uint64_t total,
                                      std::uint64_t target_block =
                                          kDefaultBlock);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const ShardRange& shard(std::size_t i) const {
    return shards_[i];
  }
  [[nodiscard]] const std::vector<ShardRange>& shards() const {
    return shards_;
  }

 private:
  std::uint64_t total_ = 0;
  std::vector<ShardRange> shards_;
};

}  // namespace da::sweep
