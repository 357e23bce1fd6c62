#include "inject/injection_network.hpp"

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace da::inject {

namespace {

/// Independent decision hash per (plan seed, purpose, message identity).
/// `purpose` decouples the drop/dup/delay draws so one message can be,
/// say, duplicated without that also biasing its delay draw.
double unit_draw(std::uint64_t seed, std::uint64_t purpose,
                 const sim::Message& msg) {
  std::uint64_t h = mix64(seed, purpose);
  h = mix64(h, static_cast<std::uint64_t>(msg.from));
  h = mix64(h, static_cast<std::uint64_t>(msg.to));
  h = mix64(h, static_cast<std::uint64_t>(msg.round));
  h = mix64(h, msg.path.hash());
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kDropDraw = 0xD0;
constexpr std::uint64_t kDupDraw = 0xD1;
constexpr std::uint64_t kDelayDraw = 0xD2;
constexpr std::uint64_t kDelayFracDraw = 0xD3;

}  // namespace

obs::Json InjectionStats::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("examined", static_cast<std::int64_t>(examined))
      .set("dropped", static_cast<std::int64_t>(dropped))
      .set("duplicated", static_cast<std::int64_t>(duplicated))
      .set("delayed", static_cast<std::int64_t>(delayed))
      .set("crash_dropped", static_cast<std::int64_t>(crash_dropped));
  obs::Json hits = obs::Json::array();
  for (std::uint64_t h : rule_hits) {
    hits.push_back(obs::Json(static_cast<std::int64_t>(h)));
  }
  j.set("rule_hits", std::move(hits));
  return j;
}

InjectionNetwork::InjectionNetwork(FaultPlan plan) : plan_(std::move(plan)) {
  stats_.rule_hits.assign(plan_.rules.size(), 0);
}

InjectionNetwork::Decision InjectionNetwork::decide(
    const sim::Message& msg) const {
  Decision d;
  // Crash windows dominate: a down endpoint neither sends nor receives.
  if (plan_.crashed(msg.from, msg.round) || plan_.crashed(msg.to, msg.round)) {
    d.crash = true;
    return d;
  }
  // First matching scripted rule wins.
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const LinkRule& rule = plan_.rules[i];
    if (!rule.matches(msg)) continue;
    d.rule = static_cast<int>(i);
    switch (rule.kind) {
      case FaultKind::kDrop: d.drop = true; return d;
      case FaultKind::kDuplicate: d.copies = rule.copies; return d;
      case FaultKind::kDelay:
        d.delay_frac = 0.5 + 0.4 * unit_draw(plan_.seed, kDelayFracDraw, msg);
        return d;
    }
  }
  // Background rates, each from an independent per-message draw.
  if (plan_.rates.drop > 0.0 &&
      unit_draw(plan_.seed, kDropDraw, msg) < plan_.rates.drop) {
    d.drop = true;
    return d;
  }
  if (plan_.rates.duplicate > 0.0 &&
      unit_draw(plan_.seed, kDupDraw, msg) < plan_.rates.duplicate) {
    d.copies = 2;
  }
  if (plan_.rates.delay > 0.0 &&
      unit_draw(plan_.seed, kDelayDraw, msg) < plan_.rates.delay) {
    d.delay_frac = 0.5 + 0.4 * unit_draw(plan_.seed, kDelayFracDraw, msg);
  }
  return d;
}

double InjectionNetwork::transit(const sim::Message& msg,
                                 std::vector<sim::Message>& out) {
  static const obs::Counter examined("inject.examined");
  static const obs::Counter dropped("inject.dropped");
  static const obs::Counter duplicated("inject.duplicated");
  static const obs::Counter delayed("inject.delayed");
  static const obs::Counter crash_dropped("inject.crash_dropped");

  ++stats_.examined;
  examined.add();
  const Decision d = decide(msg);
  if (d.rule >= 0 &&
      static_cast<std::size_t>(d.rule) < stats_.rule_hits.size()) {
    ++stats_.rule_hits[static_cast<std::size_t>(d.rule)];
  }
  if (d.crash) {
    ++stats_.crash_dropped;
    crash_dropped.add();
    return 0.0;
  }
  if (d.drop) {
    ++stats_.dropped;
    dropped.add();
    return 0.0;
  }
  if (d.delay_frac > 0.0) {
    ++stats_.delayed;
    delayed.add();
  }
  out.push_back(msg);
  for (int c = 1; c < d.copies; ++c) {
    out.push_back(msg);
    ++stats_.duplicated;
    duplicated.add();
  }
  return d.delay_frac;
}

}  // namespace da::inject
