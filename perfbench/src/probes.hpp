#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scenario.hpp"
#include "workload.hpp"

namespace perfbench {

/// Layer probes: repeated calls into one public function of the protocols,
/// sim or core layer on one of the workloads' own scenario shapes, timed
/// in batches and reported as the median batch's per-call cost.

enum class ShapeKind { kByz, kOm };

/// One scenario shape as the workloads run it: protocol, config, sender 0
/// with value 17, the given faulty set under an equivocating adversary.
struct Shape {
  ShapeKind kind = ShapeKind::kByz;
  da::Config config{};
  std::vector<da::NodeId> faulty{};
};

/// restore / snapshot / dispatch / process_round / check costs of `shape`,
/// measured on one `RoundEngine` kept cache-resident by restore.
[[nodiscard]] ShapeCost probe_shape(const Shape& shape);

/// Protocol-layer micro costs on the workloads' shapes.
struct ProtocolCosts {
  double vote_ns = 0.0;          // VOTE over n-1 values, n in {6, 7}
  double eig_n6d2_us = 0.0;      // EigTree::resolve, n = 6, depth 2
  double eig_n7d3_us = 0.0;      // EigTree::resolve, n = 7, depth 3
};
[[nodiscard]] ProtocolCosts probe_protocols(std::uint64_t seed);

/// Median per-call cost (in `unit_scale` units per second, e.g. 1e6 for
/// microseconds) of `body`, run in `batches` batches of `calls` calls.
template <typename Body>
[[nodiscard]] double per_call(int batches, int calls, double unit_scale,
                              Body&& body) {
  std::vector<double> per;
  per.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) body();
    const auto t1 = Clock::now();
    per.push_back(ms_between(t0, t1) / 1e3 * unit_scale / calls);
  }
  return median(std::move(per));
}

}  // namespace perfbench
