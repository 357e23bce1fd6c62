#include "core/scenario.hpp"

#include <algorithm>
#include <limits>

#include "core/byz.hpp"
#include "protocols/common/eig_layout.hpp"
#include "util/contracts.hpp"

namespace da {

std::string Config::to_string() const {
  return std::to_string(m) + "/" + std::to_string(u) + "-degradable, n=" +
         std::to_string(n);
}

bool Config::engine_runnable() const {
  return n >= 2 * m + 1 && engine_slots() <= kEngineSlotBudget;
}

std::uint64_t Config::engine_slots() const {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t tree =
      protocols::EigLayout::slot_count(n, core::byz_depth(m));
  const auto receivers = static_cast<std::uint64_t>(std::max(n, 0));
  if (receivers != 0 && tree > kMax / receivers) return kMax;
  return receivers * tree;
}

namespace {

std::string unsupported_reason(const Config& config) {
  if (config.n < 2 * config.m + 1) {
    return " needs n >= 2m+1 = " + std::to_string(2 * config.m + 1) +
           " for the engine's deepest VOTE quorum to be non-empty";
  }
  const std::uint64_t slots = config.engine_slots();
  const std::string count =
      slots == std::numeric_limits<std::uint64_t>::max()
          ? "more than 2^64"
          : std::to_string(slots);
  return " needs " + count + " EIG arena slots (n receivers x the depth-" +
         std::to_string(core::byz_depth(config.m)) +
         " tree), over the engine's budget of " +
         std::to_string(kEngineSlotBudget);
}

}  // namespace

UnsupportedConfig::UnsupportedConfig(const Config& config)
    : std::invalid_argument("unsupported config: " + config.to_string() +
                            unsupported_reason(config)),
      config_(config) {}

bool ScenarioSpec::sender_faulty() const { return is_faulty(sender); }

bool ScenarioSpec::is_faulty(NodeId id) const {
  return std::binary_search(faulty.begin(), faulty.end(), id);
}

std::vector<NodeId> ScenarioSpec::fault_free_receivers() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < config.n; ++id) {
    if (id != sender && !is_faulty(id)) out.push_back(id);
  }
  return out;
}

void ScenarioSpec::validate() const {
  DA_EXPECTS(config.valid());
  DA_EXPECTS(sender >= 0 && sender < config.n);
  DA_EXPECTS(!sender_value.is_default());
  DA_EXPECTS(std::is_sorted(faulty.begin(), faulty.end()));
  DA_EXPECTS(std::adjacent_find(faulty.begin(), faulty.end()) ==
             faulty.end());
  for (NodeId id : faulty) DA_EXPECTS(id >= 0 && id < config.n);
}

std::string ScenarioSpec::to_string() const {
  std::string s = config.to_string() + ", sender=" + std::to_string(sender) +
                  " value=" + sender_value.to_string() + ", faulty={";
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(faulty[i]);
  }
  return s + "}";
}

}  // namespace da
