#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median of `values` (mean of the two middle elements for even sizes);
/// 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// First, second and third quartile with the same "exclusive" method as
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed here
/// match the ones computed from a run's printed results. A single sample
/// is its own quartiles; an empty input gives zeros.
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> values);

/// Nearest-rank percentile q (0 < q < 1) of `values`: the smallest value
/// with at least a share q of the values at or below it; 0 for an empty
/// input.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// `values` holds whole rounds of `per_round` positions (position k of
/// round r at r * per_round + k; a trailing partial round is ignored).
/// Returns, for each position, the percentile q of its values over the
/// rounds.
[[nodiscard]] std::vector<double> round_percentiles(
    const std::vector<double>& values, std::size_t per_round, double q);

/// Nearest-rank percentile q (0 < q < 1) of `values`, or nullopt when
/// fewer than `min_beyond` samples lie beyond it — a tail percentile is
/// only reported when at least ten samples are slower than it.
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> values,
                                                    double q,
                                                    std::size_t min_beyond = 10);

/// Smallest sample count for which `tail_percentile(values, q, min_beyond)`
/// is defined.
[[nodiscard]] std::size_t samples_needed(double q, std::size_t min_beyond = 10);

[[nodiscard]] double mean(const std::vector<double>& values);

}  // namespace perfbench
