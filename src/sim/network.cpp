#include "sim/network.hpp"

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace da::sim {

double FalseTimeoutNetwork::transit(const Message& msg,
                                    std::vector<Message>& out) {
  if (active_ && drop_prob_ > 0.0) {
    std::uint64_t h = mix64(seed_, static_cast<std::uint64_t>(msg.from));
    h = mix64(h, static_cast<std::uint64_t>(msg.to));
    h = mix64(h, static_cast<std::uint64_t>(msg.round));
    h = mix64(h, msg.path.hash());
    const double x = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (x < drop_prob_) {
      static const obs::Counter dropped("sim.network.false_timeouts");
      dropped.add();
      return 0.0;
    }
  }
  out.push_back(msg);
  return 0.0;
}

}  // namespace da::sim
