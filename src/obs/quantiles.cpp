#include "obs/quantiles.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace da::obs {

std::size_t QuantileSketch::bucket_of(double value) {
  // NaN fails the comparison and joins zero/negatives in the underflow
  // bucket; +inf has biased exponent 0x7ff and clamps to overflow.
  if (!(value > 0.0)) return 0;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  const int exp = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  if (exp < kMinExp) return 0;  // subnormals land here too (exp == -1023)
  if (exp >= kMaxExp) return kBuckets - 1;
  const auto sub = static_cast<std::size_t>(
      (bits >> (52 - kSubBits)) & static_cast<std::uint64_t>(kSubBuckets - 1));
  return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
}

double QuantileSketch::bucket_mid(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  if (bucket >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const std::size_t k = bucket - 1;
  const int exp = kMinExp + static_cast<int>(k) / kSubBuckets;
  const auto sub = static_cast<double>(k % kSubBuckets);
  // Bucket k covers [2^exp * (1 + sub/32), 2^exp * (1 + (sub+1)/32)).
  return std::ldexp(1.0 + (sub + 0.5) / kSubBuckets, exp);
}

void QuantileSketch::record(double value) {
  const std::size_t bucket = bucket_of(value);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
    lo_ = bucket;
    hi_ = bucket;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
    lo_ = std::min(lo_, bucket);
    hi_ = std::max(hi_, bucket);
  }
  ++count_;
  sum_ += value;
  ++buckets_[bucket];
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
    lo_ = other.lo_;
    hi_ = other.hi_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    lo_ = std::min(lo_, other.lo_);
    hi_ = std::max(hi_, other.hi_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = other.lo_; i <= other.hi_; ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

void QuantileSketch::clear() {
  if (count_ != 0) {
    std::fill(buckets_.begin() + static_cast<std::ptrdiff_t>(lo_),
              buckets_.begin() + static_cast<std::ptrdiff_t>(hi_) + 1, 0);
  }
  count_ = 0;
  min_ = 0.0;
  max_ = 0.0;
  sum_ = 0.0;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  // The extremes are tracked exactly; answer them without bucket blur.
  if (clamped == 0.0) return min_;
  if (clamped == 1.0) return max_;
  const auto target = static_cast<std::uint64_t>(
      clamped * static_cast<double>(count_ - 1));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative > target) {
      return std::clamp(bucket_mid(i), min_, max_);
    }
  }
  return max_;
}

std::string QuantileSketch::serialize() const {
  char line[96];
  std::string out;
  if (count_ == 0) return "qsketch/1 count=0\n";
  std::snprintf(line, sizeof line, "qsketch/1 count=%llu min=%016llx max=%016llx\n",
                static_cast<unsigned long long>(count_),
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(min_)),
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(max_)));
  out += line;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    std::snprintf(line, sizeof line, "b %zu %llu\n", i,
                  static_cast<unsigned long long>(buckets_[i]));
    out += line;
  }
  return out;
}

}  // namespace da::obs
