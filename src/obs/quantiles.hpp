#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace da::obs {

/// Streaming log-bucketed quantile sketch (HDR-histogram style) with a
/// *fixed* bucket layout, built for the repo's determinism discipline:
///
///   - `record()` is O(1): the bucket index is computed from the raw bit
///     pattern of the double (exponent + top 5 mantissa bits), no log()
///     call, no allocation, no data-dependent branches beyond clamping.
///   - `merge()` is a bucket-wise integer add plus bit-exact min/max —
///     **associative and commutative**, so merging any number of
///     thread-local sketches in any order yields byte-identical canonical
///     state (`test_spans.cpp` pins associativity with a property test).
///     It and `clear()` touch only the range of buckets ever recorded
///     into, so a flush of a few samples costs a few buckets, not all
///     1,026.
///   - `serialize()` covers only the canonical state (count, min/max bit
///     patterns, non-zero buckets). The running `sum()` is deliberately
///     excluded: double addition is not associative, so a sum folded in
///     nondeterministic flush order may differ in the last ulp. Means are
///     for display; canonical comparisons use `serialize()`.
///
/// Layout: 32 sub-buckets per power-of-two octave over exponents
/// [kMinExp, kMaxExp), plus an underflow bucket (index 0: zero, negatives
/// and anything below 2^kMinExp) and an overflow bucket (anything at or
/// above 2^kMaxExp). Relative quantile error is bounded by the sub-bucket
/// width, 2^(1/32) - 1 ≈ 2.2%, over ~9.5e-7 .. 4096 — in the service's
/// virtual-time units that comfortably covers queue waits and decision
/// latencies; `quantile()` answers are additionally clamped to the exact
/// observed [min, max].
class QuantileSketch {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 32 per octave
  static constexpr int kMinExp = -20;
  static constexpr int kMaxExp = 12;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  /// Bucket index for a value. Total over all doubles: NaN, negatives and
  /// values below 2^kMinExp land in bucket 0, values >= 2^kMaxExp
  /// (including +inf) in the last bucket.
  [[nodiscard]] static std::size_t bucket_of(double value);

  /// Midpoint of a bucket's value range (0 for the underflow bucket,
  /// 2^kMaxExp for the overflow bucket).
  [[nodiscard]] static double bucket_mid(std::size_t bucket);

  void record(double value);

  /// Folds `other` into this sketch. Exact: integer bucket adds, bit-exact
  /// min/max, so merge order can never change the canonical state.
  void merge(const QuantileSketch& other);

  void clear();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Display-only (see class comment); 0 when empty.
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Nearest-rank quantile estimate for q in [0, 1] (clamped); 0 when
  /// empty. The answer is a bucket midpoint clamped to [min(), max()].
  [[nodiscard]] double quantile(double q) const;

  /// Canonical text form: a `qsketch/1` header (count + min/max as hex bit
  /// patterns) followed by one `b <index> <count>` line per non-zero
  /// bucket. Two sketches with equal canonical state serialize
  /// byte-identically; `sum()` is excluded by design.
  [[nodiscard]] std::string serialize() const;

 private:
  std::uint64_t count_ = 0;
  double min_ = 0.0;  // valid iff count_ > 0
  double max_ = 0.0;
  double sum_ = 0.0;  // non-canonical (display only)
  // Occupied bucket range [lo_, hi_] (valid iff count_ > 0): the only
  // buckets merge() and clear() need to visit.
  std::size_t lo_ = 0;
  std::size_t hi_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

}  // namespace da::obs
