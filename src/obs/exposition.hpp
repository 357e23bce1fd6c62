#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace da::obs {

/// Renders a MetricsSnapshot in the Prometheus text exposition format
/// (docs/OBSERVABILITY.md "Quantiles"): counters and gauges as single
/// samples, quantile sketches as summaries with
/// `{quantile="0.5|0.9|0.99|0.999"}` samples plus `_sum`/`_count`. Metric
/// names are prefixed `da_` and sanitized (`.` -> `_`); the output is
/// deterministic for a given snapshot (maps iterate sorted, one fixed
/// float format), so tests can pin it byte-for-byte.
[[nodiscard]] std::string to_exposition(const MetricsSnapshot& snapshot);

/// Writes `to_exposition(snapshot)` to `file_path`; false on I/O failure.
bool write_exposition(const MetricsSnapshot& snapshot,
                      const std::string& file_path);

}  // namespace da::obs
