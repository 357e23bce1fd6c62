#include "inject/fault_plan.hpp"

#include <charconv>

#include "util/rng.hpp"

namespace da::inject {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "dup";
    case FaultKind::kDelay: return "delay";
  }
  return "?";
}

bool LinkRule::matches(const sim::Message& msg) const {
  if (from != kNoNode && msg.from != from) return false;
  if (to != kNoNode && msg.to != to) return false;
  if (round >= 0 && msg.round != round) return false;
  return true;
}

bool FaultPlan::crashed(NodeId id, int round) const {
  for (const CrashWindow& w : crashes) {
    if (w.down_at(id, round)) return true;
  }
  return false;
}

std::optional<std::string> FaultPlan::validate(int n) const {
  const auto node_ok = [n](NodeId id) {
    return id == kNoNode || (id >= 0 && id < n);
  };
  for (const LinkRule& r : rules) {
    if (!node_ok(r.from) || !node_ok(r.to)) {
      return "rule references a node outside 0.." + std::to_string(n - 1);
    }
    if (r.kind == FaultKind::kDuplicate && r.copies < 2) {
      return "dup rule needs copies >= 2";
    }
  }
  for (const CrashWindow& w : crashes) {
    if (w.node < 0 || w.node >= n) {
      return "crash window references node " + std::to_string(w.node) +
             " outside 0.." + std::to_string(n - 1);
    }
    if (w.down_from < 0 || (w.restart >= 0 && w.restart <= w.down_from)) {
      return "crash window for node " + std::to_string(w.node) +
             " has an empty or negative round range";
    }
  }
  const auto rate_ok = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!rate_ok(rates.drop) || !rate_ok(rates.duplicate) ||
      !rate_ok(rates.delay)) {
    return "rates must lie in [0, 1]";
  }
  return std::nullopt;
}

namespace {

/// A node or round field: `*` for the wildcard (kNoNode, or round -1).
std::string slot_str(int slot) {
  return slot < 0 ? "*" : std::to_string(slot);
}

/// Shortest text that reads back as exactly `p`.
std::string rate_str(double p) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, p).ptr};
}

/// An integer of at least `min`.
bool parse_count(std::string_view val, int min, int& out) {
  int v = 0;
  if (!parse_number(val, v) || v < min) return false;
  out = v;
  return true;
}

/// A node or round: a non-negative integer, or `*` for the wildcard -1
/// (kNoNode for nodes, any round for rounds).
bool parse_slot(std::string_view val, int& out) {
  if (val != "*") return parse_count(val, 0, out);
  out = -1;
  return true;
}

/// A probability in [0, 1] (NaN fails both bounds).
bool parse_rate(std::string_view val, double& out) {
  double p = 0.0;
  if (!parse_number(val, p) || !(p >= 0.0 && p <= 1.0)) return false;
  out = p;
  return true;
}

}  // namespace

std::string FaultPlan::serialize() const {
  std::string out = "seed " + std::to_string(seed) + "\n";
  for (const LinkRule& r : rules) {
    out += std::string(da::inject::to_string(r.kind)) +
           " from=" + slot_str(r.from) + " to=" + slot_str(r.to) +
           " round=" + slot_str(r.round);
    if (r.kind == FaultKind::kDuplicate) {
      out += " copies=" + std::to_string(r.copies);
    }
    out += "\n";
  }
  for (const CrashWindow& w : crashes) {
    out += "crash node=" + std::to_string(w.node) +
           " down=" + std::to_string(w.down_from);
    if (w.restart >= 0) out += " restart=" + std::to_string(w.restart);
    out += "\n";
  }
  if (rates.any()) {
    out += "rates drop=" + rate_str(rates.drop) +
           " dup=" + rate_str(rates.duplicate) +
           " delay=" + rate_str(rates.delay) + "\n";
  }
  return out;
}

Parsed<FaultPlan> FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  TextCursor in(text, " \t");
  while (in.next_line()) {
    const std::string_view verb = in.field();
    if (verb.empty() || verb.front() == '#') continue;
    if (verb == "seed") {
      if (!in.number(plan.seed) || !in.field().empty()) {
        return in.error(ParseKind::kBadValue, "seed wants one integer");
      }
      continue;
    }
    LinkRule rule;
    CrashWindow window;
    const bool is_rule = verb == "drop" || verb == "dup" || verb == "delay";
    if (verb == "dup") rule.kind = FaultKind::kDuplicate;
    if (verb == "delay") rule.kind = FaultKind::kDelay;
    if (!is_rule && verb != "crash" && verb != "rates") {
      return in.error(ParseKind::kUnknownName,
                      "unknown directive `" + std::string(verb) + "`");
    }
    bool have_node = false;
    for (std::string_view f = in.field(); !f.empty(); f = in.field()) {
      const std::size_t eq = f.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        return in.error(ParseKind::kSyntax,
                        "expected key=value, got `" + std::string(f) + "`");
      }
      const std::string_view key = f.substr(0, eq);
      const std::string_view val = f.substr(eq + 1);
      bool ok = false;
      if (is_rule && key == "from") {
        ok = parse_slot(val, rule.from);
      } else if (is_rule && key == "to") {
        ok = parse_slot(val, rule.to);
      } else if (is_rule && key == "round") {
        ok = parse_slot(val, rule.round);
      } else if (verb == "dup" && key == "copies") {
        ok = parse_count(val, 2, rule.copies);
      } else if (verb == "crash" && key == "node") {
        ok = have_node = parse_count(val, 0, window.node);
      } else if (verb == "crash" && key == "down") {
        ok = parse_count(val, 0, window.down_from);
      } else if (verb == "crash" && key == "restart") {
        ok = parse_count(val, 0, window.restart);
      } else if (verb == "rates" && key == "drop") {
        ok = parse_rate(val, plan.rates.drop);
      } else if (verb == "rates" && key == "dup") {
        ok = parse_rate(val, plan.rates.duplicate);
      } else if (verb == "rates" && key == "delay") {
        ok = parse_rate(val, plan.rates.delay);
      } else {
        return in.error(ParseKind::kUnknownName,
                        "unknown " + std::string(verb) + " field `" +
                            std::string(key) + "`");
      }
      if (!ok) {
        return in.error(ParseKind::kBadValue,
                        "bad " + std::string(verb) + " field `" +
                            std::string(f) + "`");
      }
    }
    if (is_rule) plan.rules.push_back(rule);
    if (verb == "crash") {
      if (!have_node) {
        return in.error(ParseKind::kBadValue, "crash wants node=<id>");
      }
      plan.crashes.push_back(window);
    }
  }
  return plan;
}

FaultPlan FaultPlan::from_seed(std::uint64_t seed, int n, int rounds) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(mix64(seed, 0x1417EC7ULL));

  // Moderate background rates; any heavier and every execution degenerates
  // to all-defaults, which stops exercising the interesting vote paths.
  plan.rates.drop = 0.02 + 0.10 * rng.uniform();
  plan.rates.duplicate = 0.10 * rng.uniform();
  plan.rates.delay = 0.25 * rng.uniform();

  // Half the plans crash-restart one node for a one-round (sometimes
  // permanent) outage.
  if (rng.chance(0.5) && n > 0 && rounds > 1) {
    CrashWindow window;
    window.node = static_cast<NodeId>(rng.below(static_cast<uint64_t>(n)));
    window.down_from =
        1 + static_cast<int>(rng.below(static_cast<uint64_t>(rounds - 1)));
    window.restart = rng.chance(0.8) ? window.down_from + 1 : -1;
    plan.crashes.push_back(window);
  }

  // A couple of scripted per-link rules on random links/rounds.
  const int rule_count = static_cast<int>(rng.below(3));  // 0..2
  for (int i = 0; i < rule_count && n > 1; ++i) {
    LinkRule rule;
    rule.from = static_cast<NodeId>(rng.below(static_cast<uint64_t>(n)));
    rule.to = static_cast<NodeId>(rng.below(static_cast<uint64_t>(n)));
    rule.round = static_cast<int>(rng.below(static_cast<uint64_t>(rounds)));
    switch (rng.below(3)) {
      case 0: rule.kind = FaultKind::kDrop; break;
      case 1:
        rule.kind = FaultKind::kDuplicate;
        rule.copies = 2 + static_cast<int>(rng.below(2));
        break;
      default: rule.kind = FaultKind::kDelay; break;
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  return std::to_string(rules.size()) + " rules, " +
         std::to_string(crashes.size()) + " crashes, rates d=" +
         rate_str(rates.drop) + "/u=" + rate_str(rates.duplicate) +
         "/l=" + rate_str(rates.delay) + ", seed " + std::to_string(seed);
}

}  // namespace da::inject
