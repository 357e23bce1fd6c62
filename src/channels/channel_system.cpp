#include "channels/channel_system.hpp"

#include <algorithm>
#include <set>

#include "core/agreement.hpp"
#include "util/contracts.hpp"

namespace da::channels {

int ChannelSystemConfig::channel_count() const {
  switch (kind) {
    case Kind::kByzantineMajority: return 3 * m;
    case Kind::kDegradable: return 2 * m + u;
  }
  return 0;
}

std::size_t ChannelSystemConfig::vote_threshold() const {
  switch (kind) {
    case Kind::kByzantineMajority:
      return static_cast<std::size_t>(3 * m) / 2 + 1;  // majority of 3m
    case Kind::kDegradable:
      return static_cast<std::size_t>(m + u);  // (m+u)-out-of-(2m+u)
  }
  return 1;
}

ChannelSystem::ChannelSystem(ChannelSystemConfig config)
    : config_(config),
      compute_([](Value x) { return Value::of(2 * x.raw() + 1); }) {
  DA_EXPECTS(config_.m >= 1);
  if (config_.kind == ChannelSystemConfig::Kind::kDegradable) {
    DA_EXPECTS(config_.u >= config_.m);
  }
}

void ChannelSystem::set_computation(Computation f) {
  DA_EXPECTS(f != nullptr);
  compute_ = std::move(f);
}

FrameResult ChannelSystem::run_frame(Value sensor_value,
                                     const std::vector<int>& faulty_channels,
                                     bool sensor_faulty,
                                     sim::Adversary& adversary,
                                     Value faulty_output) const {
  const int channels = config_.channel_count();
  const int n = config_.node_count();

  ScenarioSpec spec;
  spec.sender = 0;  // the sensor
  spec.sender_value = sensor_value;
  if (sensor_faulty) spec.faulty.push_back(0);
  for (int c : faulty_channels) {
    DA_EXPECTS(c >= 0 && c < channels);
    spec.faulty.push_back(c + 1);
  }
  std::sort(spec.faulty.begin(), spec.faulty.end());

  sim::RunResult agreement;
  if (config_.kind == ChannelSystemConfig::Kind::kDegradable) {
    spec.config = Config{.n = n, .m = config_.m, .u = config_.u};
    const DegradableAgreement protocol(spec.config);
    agreement = protocol.run(spec, &adversary);
  } else {
    spec.config = Config{.n = n, .m = config_.m, .u = config_.m};
    const LamportAgreement protocol(n, config_.m);
    agreement = protocol.run(spec, &adversary);
  }

  // Each channel computes on its agreed input; a channel that agreed on
  // V_d enters the safe default state and reports V_d to the voter (C.3).
  FrameResult frame;
  frame.channel_outputs.resize(static_cast<std::size_t>(channels));
  std::set<Value> fault_free_states;
  const Value correct = compute_(sensor_value);

  for (int c = 0; c < channels; ++c) {
    const NodeId node = c + 1;
    const bool faulty = spec.is_faulty(node);
    Value output;
    if (faulty) {
      output = faulty_output;  // colluding wrong output to the voter
    } else {
      const Value agreed = agreement.decisions.at(node);
      output = agreed.is_default() ? Value::def() : compute_(agreed);
      fault_free_states.insert(output);
    }
    frame.channel_outputs[static_cast<std::size_t>(c)] = output;
  }

  frame.distinct_fault_free_states =
      static_cast<int>(fault_free_states.size());
  frame.divergence_graceful = std::all_of(
      fault_free_states.begin(), fault_free_states.end(),
      [&correct](const Value& s) { return s == correct || s.is_default(); });

  frame.voter_output =
      external_vote(frame.channel_outputs, config_.vote_threshold());
  frame.outcome = classify(frame.voter_output, correct);
  return frame;
}

}  // namespace da::channels
