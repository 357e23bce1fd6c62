#include "protocols/lamport/om.hpp"

#include "util/contracts.hpp"

namespace da::protocols::lamport {

std::vector<std::unique_ptr<sim::Process>> make_om_processes(int n, int m,
                                                             NodeId sender,
                                                             Value value) {
  DA_EXPECTS(m >= 0);
  return make_eig_processes(n, sender, value, om_rounds(m),
                            std::make_shared<MajorityResolver>());
}

int om_rounds(int m) {
  DA_EXPECTS(m >= 0);
  return m + 1;
}

std::uint64_t om_message_count(int n, int m) {
  DA_EXPECTS(n >= 2 && m >= 0);
  return eig_message_count(n, om_rounds(m));
}

bool byzantine_agreement_holds(
    Value sender_value, bool sender_faulty,
    const std::vector<NodeId>& fault_free_receivers,
    const sim::Decisions& decisions) {
  if (fault_free_receivers.empty()) return true;
  const Value agreed = decisions.at(fault_free_receivers.front());
  for (NodeId r : fault_free_receivers) {
    if (decisions.at(r) != agreed) return false;
  }
  return sender_faulty || agreed == sender_value;
}

}  // namespace da::protocols::lamport
