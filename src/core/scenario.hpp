#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/ids.hpp"
#include "util/value.hpp"

namespace da {

/// The most EIG arena slots one BYZ instance may hold (n receivers, each
/// with the whole tree at byz_depth(m)): 2^24 slots, a few hundred MiB of
/// arenas and layout tables. Every config a test, bench, example or
/// benchmark workload runs is far below it; past it the engine would
/// exhaust memory, so it refuses the config instead.
inline constexpr std::uint64_t kEngineSlotBudget = std::uint64_t{1} << 24;

/// Parameters of one m/u-degradable agreement instance.
///
/// `m` is the exact-agreement fault budget (conditions D.1/D.2 hold while
/// f <= m); `u` is the degraded budget (D.3/D.4 hold while m < f <= u).
/// The paper requires u >= m >= 0; N > 2m+u is required for the protocol's
/// guarantees, but deliberately *not* enforced here — the lower-bound
/// experiments run infeasible configurations on purpose.
struct Config {
  int n = 0;
  int m = 0;
  int u = 0;

  /// Theorem 2 feasibility: N >= 2m+u+1.
  [[nodiscard]] bool feasible() const { return n >= 2 * m + u + 1; }

  /// Basic well-formedness (0 <= m <= u < n).
  [[nodiscard]] bool valid() const {
    return n >= 2 && m >= 0 && u >= m && u < n;
  }

  /// Whether the EIG engine family can *execute* this config at all.
  /// Two limits apply:
  ///  - the quorum floor: the deepest resolve level works with subtrees
  ///    over n - (m-1) nodes and needs its VOTE quorum alpha = n - 2m to
  ///    stay positive, so n >= 2m+1. This is strictly weaker than
  ///    `feasible()` — configs in [2m+1, 2m+u] are infeasible (Theorem 2)
  ///    yet still runnable, which the lower-bound experiments rely on —
  ///    but below it the engine cannot even be constructed (n=2, m=1);
  ///  - the arena budget: `engine_slots() <= kEngineSlotBudget`.
  /// Execution boundaries throw `UnsupportedConfig` on violation;
  /// `valid()` deliberately does not fold this in so bounds code can
  /// still *describe* such configs. Requires m >= 0. Allocates nothing.
  [[nodiscard]] bool engine_runnable() const;

  /// EIG arena slots of one instance: n × the tree size at byz_depth(m)
  /// (`protocols::EigLayout::slot_count`), saturating at UINT64_MAX.
  /// Requires m >= 0.
  [[nodiscard]] std::uint64_t engine_slots() const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Config&, const Config&) = default;
};

/// Structured rejection for well-formed configs the EIG-based agreement
/// engine cannot execute (`Config::engine_runnable()` fails); the message
/// names the limit that failed, the quorum floor or the arena budget.
/// Thrown by `core::make_byz_processes` and the service admission
/// boundary so callers can distinguish "you asked for the impossible"
/// from plain contract bugs, and can recover the offending config.
/// Deliberately not part of `ScenarioSpec::validate()`: specs are
/// protocol-agnostic, and the non-EIG protocols (SM, OM's majority
/// resolve, crusader) run configs below the EIG floor just fine.
class UnsupportedConfig : public std::invalid_argument {
 public:
  explicit UnsupportedConfig(const Config& config);

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
};

/// One concrete execution: who sends what, and who is Byzantine.
struct ScenarioSpec {
  Config config{};
  NodeId sender = 0;
  Value sender_value = Value::of(1);
  std::vector<NodeId> faulty{};  // sorted, unique

  [[nodiscard]] int f() const { return static_cast<int>(faulty.size()); }
  [[nodiscard]] bool sender_faulty() const;
  [[nodiscard]] bool is_faulty(NodeId id) const;

  /// Fault-free receivers (everyone but sender and faulty nodes).
  [[nodiscard]] std::vector<NodeId> fault_free_receivers() const;

  /// Throws on malformed specs (ids out of range, duplicate faulty ids,
  /// default sender value, ...).
  void validate() const;

  [[nodiscard]] std::string to_string() const;
};

}  // namespace da
