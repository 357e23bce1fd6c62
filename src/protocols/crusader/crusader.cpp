#include "protocols/crusader/crusader.hpp"

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace da::protocols::crusader {

std::vector<std::unique_ptr<sim::Process>> make_crusader_processes(
    int n, int m, NodeId sender, Value value) {
  DA_EXPECTS(m >= 0);
  static const obs::Counter instances("protocol.crusader.instances");
  instances.add();
  return make_eig_processes(n, sender, value, crusader_rounds(),
                            std::make_shared<ByzResolver>(m));
}

std::uint64_t crusader_message_count(int n) {
  return eig_message_count(n, crusader_rounds());
}

bool crusader_agreement_holds(
    Value sender_value, bool sender_faulty,
    const std::vector<NodeId>& fault_free_receivers,
    const sim::Decisions& decisions) {
  Value agreed = Value::def();
  for (NodeId r : fault_free_receivers) {
    const Value d = decisions.at(r);
    if (d.is_default()) {
      if (!sender_faulty) return false;  // must adopt a correct sender
      continue;
    }
    if (!sender_faulty && d != sender_value) return false;
    if (agreed.is_default()) {
      agreed = d;
    } else if (d != agreed) {
      return false;  // two distinct non-default decisions
    }
  }
  return true;
}

}  // namespace da::protocols::crusader
