#include "protocols/common/eig_process.hpp"

#include <bit>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace da::protocols {

EigProcess::EigProcess(Params params)
    : params_(std::move(params)),
      tree_(params_.self, params_.sender, params_.nodes, params_.depth) {
  DA_EXPECTS(params_.resolver != nullptr);
  DA_EXPECTS(params_.depth >= 1);
  if (params_.self == params_.sender) {
    DA_EXPECTS(!params_.input.is_default());
  }
}

void EigProcess::start(std::vector<sim::Message>& out) {
  if (params_.self != params_.sender) return;
  Path root;
  root.push_back(params_.sender);
  for (NodeId to : tree_.nodes()) {
    if (to == params_.self) continue;
    out.push_back(sim::Message{.from = params_.self,
                               .to = to,
                               .round = 0,
                               .path = root,
                               .value = params_.input});
  }
}

void EigProcess::on_round(int round, const std::vector<sim::Message>& inbox,
                          std::vector<sim::Message>& out) {
  // Relays are appended into the runner's held outbox as each fresh path
  // is stored, so no round of an execution allocates here once that
  // buffer is warm. The final round (and the sender in every round)
  // stores without relaying.
  const bool relay =
      round + 1 < params_.depth && params_.self != params_.sender;
  const std::vector<NodeId>& nodes = tree_.nodes();
  for (const sim::Message& msg : inbox) {
    // A message is stored only if it is addressed here, its path has the
    // round's length and ends at the actual transmitter, and `admit`
    // finds its slot (rooted at the sender, distinct participant hops,
    // not through this receiver).
    if (msg.to != params_.self ||
        static_cast<int>(msg.path.size()) != round + 1 ||
        msg.path.back() != msg.from) {
      continue;
    }
    std::uint64_t mask = 0;
    const std::uint32_t slot = tree_.admit(msg.path, mask);
    if (slot == EigTree::kNoSlot) continue;
    // Duplicate deliveries lose to the first write (set_if_absent).
    if (!tree_.set_if_absent(slot, msg.value) || !relay) continue;
    // Relay the value just stored with our id appended, to every
    // participant off the extended path, in ascending id (= rank) order.
    // Omitted incoming messages are not re-materialized: the downstream
    // receiver observes our silence for that path as V_d, exactly as we
    // did.
    const Path extended = msg.path.extended(params_.self);
    for (std::uint64_t rest = tree_.relay_ranks(mask); rest != 0;
         rest &= rest - 1) {
      out.push_back(sim::Message{
          .from = params_.self,
          .to = nodes[static_cast<std::size_t>(std::countr_zero(rest))],
          .round = round + 1,
          .path = extended,
          .value = msg.value});
    }
  }
}

Value EigProcess::decide() const {
  if (params_.self == params_.sender) return params_.input;
  return tree_.resolve(*params_.resolver);
}

std::unique_ptr<sim::Process> EigProcess::clone() const {
  auto copy = std::make_unique<EigProcess>(params_);
  copy->tree_ = tree_;
  return copy;
}

void EigProcess::assign_from(const sim::Process& other) {
  const auto& o = dynamic_cast<const EigProcess&>(other);
  DA_EXPECTS(params_.self == o.params_.self &&
             params_.sender == o.params_.sender &&
             params_.depth == o.params_.depth);
  tree_ = o.tree_;  // same shape: vector copy-assigns reuse capacity
}

std::vector<std::unique_ptr<sim::Process>> make_eig_processes(
    int n, NodeId sender, Value input, int depth,
    std::shared_ptr<const Resolver> resolver) {
  DA_EXPECTS(n >= 2);
  static const obs::Counter instances("protocol.eig.instances");
  instances.add();
  DA_EXPECTS(sender >= 0 && sender < n);
  std::vector<NodeId> nodes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) nodes[static_cast<std::size_t>(i)] = i;

  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (NodeId self = 0; self < n; ++self) {
    procs.push_back(std::make_unique<EigProcess>(EigProcess::Params{
        .self = self,
        .sender = sender,
        .nodes = nodes,
        .depth = depth,
        .input = self == sender ? input : Value::def(),
        .resolver = resolver}));
  }
  return procs;
}

}  // namespace da::protocols
