#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/agreement.hpp"
#include "core/checker.hpp"
#include "core/scenario.hpp"
#include "sim/adversary.hpp"
#include "sweep/sweep.hpp"
#include "util/contracts.hpp"
#include "util/ids.hpp"

namespace da::faults {

/// A named adversary constructor, parameterized by the scenario it will
/// attack (so lies can be chosen relative to the sender's value and the
/// population size).
struct NamedAdversaryFactory {
  std::string name;
  std::function<std::unique_ptr<sim::Adversary>(const ScenarioSpec&)> make;
};

/// The standard attack family used by the property tests and the bound
/// experiments: silence, default-spamming, consistent lying, two-faced
/// equivocation (parity, pivot and targeted variants), crashes, and seeded
/// Byzantine noise.
[[nodiscard]] std::vector<NamedAdversaryFactory> standard_family(
    std::uint64_t seed);

/// A found counterexample: a scenario plus the adversary under which the
/// protocol violated the governing condition.
struct Violation {
  ScenarioSpec spec;
  std::string adversary;
  ConditionReport report;
};

struct SearchOptions {
  /// Largest fault count to try; -1 means the config's u.
  int max_f = -1;
  /// Try every sender (true) or only sender 0 (false; the protocol is
  /// node-symmetric, but some adversaries key on node parity).
  bool all_senders = false;
  std::uint64_t seed = 1;
  /// Extra random (subset, adversary) probes per fault count, on top of
  /// the exhaustive subset sweep.
  int random_trials = 0;
  /// Share one checkpointed execution prefix per (sender, subset) across
  /// the whole adversary family instead of executing each adversary from
  /// scratch (see docs/SEARCH.md, "Checkpoint engine"). The verdict and
  /// the canonical execution count are identical either way.
  bool checkpointing = true;
};

/// Runs BYZ(m,m) under every (sender, faulty subset, adversary) combination
/// and checks D.1-D.4. Returns the first violation found, or nullopt if the
/// protocol survives everything — which is the expected outcome exactly
/// when config.feasible().
[[nodiscard]] std::optional<Violation> search_violation(
    const Config& config, const SearchOptions& options = {});

/// Parallel form: the same search run through the scenario-sweep engine
/// (src/sweep/) — scenarios are sharded deterministically in serial scan
/// order (sender, then fault count, then subset lexicographic, then the
/// random probes) and scanned on a fork-join pool with early-exit
/// cancellation. The verdict and the canonical execution count in
/// `stats->executions` are identical for every `sweep_options.jobs`
/// value. Random probes derive their spec from mix64(seed, ordinal), so
/// they too are thread-count independent.
[[nodiscard]] std::optional<Violation> search_violation(
    const Config& config, const SearchOptions& options,
    const sweep::SweepOptions& sweep_options,
    sweep::SweepStats* stats = nullptr);

/// Total number of protocol executions `search_violation` would perform
/// (for reporting).
[[nodiscard]] std::uint64_t search_space_size(const Config& config,
                                              const SearchOptions& options);

/// Enumerates all k-subsets of {0..n-1} in lexicographic order; invokes
/// `fn(const std::vector<NodeId>&)` with each (sorted ascending). A
/// header-only template so the enumeration hot loops inline the callback
/// instead of paying a `std::function` dispatch per subset.
template <typename SubsetFn>
void for_each_subset(int n, int k, SubsetFn&& fn) {
  DA_EXPECTS(0 <= k && k <= n);
  std::vector<NodeId> subset(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) subset[static_cast<std::size_t>(i)] = i;
  const std::vector<NodeId>& view = subset;
  for (;;) {
    fn(view);
    // Next combination in lexicographic order.
    int i = k - 1;
    while (i >= 0 && subset[static_cast<std::size_t>(i)] == n - k + i) {
      --i;
    }
    if (i < 0) return;
    ++subset[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < k; ++j) {
      subset[static_cast<std::size_t>(j)] =
          subset[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
}

}  // namespace da::faults
