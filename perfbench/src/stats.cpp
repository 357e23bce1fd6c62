#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {

namespace {

/// Nearest rank ceil(q n), robust to q n landing a hair above an integer.
std::size_t nearest_rank(double q, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0, 0.0};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, and cut point i
  // interpolates between the j-th and (j+1)-th order statistics, where
  // j = floor(i * m / 4) (1-based), clamped to the sample range before
  // the interpolation weight is taken (as Python does).
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    const double lo = values[static_cast<std::size_t>(j - 1)];
    const double hi = values[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i - 1)] =
        (lo * static_cast<double>(4 - delta) + hi * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

std::size_t samples_needed(double q, std::size_t min_beyond) {
  // Nearest rank k = ceil(q n); the samples beyond it number n - k. The
  // smallest n with n - ceil(q n) >= min_beyond.
  std::size_t n = min_beyond;
  while (n - nearest_rank(q, n) < min_beyond) {
    ++n;
  }
  return n;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[std::max<std::size_t>(nearest_rank(q, values.size()), 1) - 1];
}

std::vector<double> round_percentiles(const std::vector<double>& values,
                                      std::size_t per_round, double q) {
  const std::size_t rounds = values.size() / per_round;
  std::vector<double> out(per_round);
  std::vector<double> samples(rounds);
  for (std::size_t k = 0; k < per_round; ++k) {
    for (std::size_t r = 0; r < rounds; ++r) {
      samples[r] = values[r * per_round + k];
    }
    out[k] = percentile(samples, q);
  }
  return out;
}

std::optional<double> tail_percentile(std::vector<double> values, double q,
                                      std::size_t min_beyond) {
  if (values.size() < samples_needed(q, min_beyond)) return std::nullopt;
  return percentile(std::move(values), q);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace perfbench
