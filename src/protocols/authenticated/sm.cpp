#include "protocols/authenticated/sm.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace da::protocols::authenticated {

SmProcess::SmProcess(Params params) : params_(std::move(params)) {
  DA_EXPECTS(params_.authority != nullptr);
  DA_EXPECTS(params_.m >= 0);
  DA_EXPECTS(static_cast<std::size_t>(params_.m) + 1 <= Path::kMaxLen);
  std::sort(params_.nodes.begin(), params_.nodes.end());
  DA_EXPECTS(std::binary_search(params_.nodes.begin(), params_.nodes.end(),
                                params_.self));
  DA_EXPECTS(std::binary_search(params_.nodes.begin(), params_.nodes.end(),
                                params_.sender));
  // Every id must fit a path hop, so no relay can fail mid-round.
  DA_EXPECTS(Path::fits(params_.nodes.front()) &&
             Path::fits(params_.nodes.back()));
  if (params_.self == params_.sender) {
    DA_EXPECTS(!params_.input.is_default());
  }
}

void SmProcess::start(std::vector<sim::Message>& out) {
  if (params_.self != params_.sender) return;
  Path chain;
  chain.push_back(params_.sender);
  const std::uint64_t tag =
      params_.authority->chain_tag(chain, params_.input);
  for (NodeId to : params_.nodes) {
    if (to == params_.self) continue;
    out.push_back(sim::Message{.from = params_.self,
                               .to = to,
                               .round = 0,
                               .path = chain,
                               .value = params_.input,
                               .aux = static_cast<std::int64_t>(tag)});
  }
}

bool SmProcess::valid_message(int round, const sim::Message& msg) const {
  if (msg.to != params_.self) return false;
  if (static_cast<int>(msg.path.size()) != round + 1) return false;
  if (msg.path.front() != params_.sender) return false;
  if (msg.path.back() != msg.from) return false;
  if (!msg.path.distinct()) return false;
  if (msg.path.contains(params_.self)) return false;
  for (NodeId hop : msg.path) {
    if (!std::binary_search(params_.nodes.begin(), params_.nodes.end(),
                            hop)) {
      return false;
    }
  }
  // The crux: the signature chain must verify. A tampered value cannot
  // carry a valid chain unless every signer colluded.
  return params_.authority->verify_chain(msg.path, msg.value,
                                         static_cast<std::uint64_t>(msg.aux));
}

void SmProcess::on_round(int round, const std::vector<sim::Message>& inbox,
                         std::vector<sim::Message>& out) {
  if (params_.self == params_.sender) return;
  for (const sim::Message& msg : inbox) {
    if (!valid_message(round, msg)) continue;
    if (!accepted_.insert(msg.value).second) continue;  // already known
    if (static_cast<int>(msg.path.size()) > params_.m) continue;  // chain full
    // Countersign and relay the newly learned value.
    const Path extended = msg.path.extended(params_.self);
    const std::uint64_t tag = params_.authority->sign(
        params_.self, msg.value, static_cast<std::uint64_t>(msg.aux));
    for (NodeId to : params_.nodes) {
      if (to == params_.self || extended.contains(to)) continue;
      out.push_back(sim::Message{.from = params_.self,
                                 .to = to,
                                 .round = round + 1,
                                 .path = extended,
                                 .value = msg.value,
                                 .aux = static_cast<std::int64_t>(tag)});
    }
  }
}

Value SmProcess::decide() const {
  if (params_.self == params_.sender) return params_.input;
  // choice(V): singleton -> the value; empty or ambiguous -> V_d.
  if (accepted_.size() == 1) return *accepted_.begin();
  return Value::def();
}

std::unique_ptr<sim::Process> SmProcess::clone() const {
  auto copy = std::make_unique<SmProcess>(params_);
  copy->accepted_ = accepted_;
  return copy;
}

void SmProcess::assign_from(const sim::Process& other) {
  const auto& o = dynamic_cast<const SmProcess&>(other);
  DA_EXPECTS(params_.self == o.params_.self &&
             params_.sender == o.params_.sender && params_.m == o.params_.m);
  accepted_ = o.accepted_;
}

std::vector<std::unique_ptr<sim::Process>> make_sm_processes(
    int n, int m, NodeId sender, Value value,
    const SignatureAuthority& authority) {
  DA_EXPECTS(n >= 2);
  static const obs::Counter instances("protocol.sm.instances");
  instances.add();
  DA_EXPECTS(sender >= 0 && sender < n);
  std::vector<NodeId> nodes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) nodes[static_cast<std::size_t>(i)] = i;

  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (NodeId self = 0; self < n; ++self) {
    procs.push_back(std::make_unique<SmProcess>(SmProcess::Params{
        .self = self,
        .sender = sender,
        .nodes = nodes,
        .m = m,
        .input = self == sender ? value : Value::def(),
        .authority = &authority}));
  }
  return procs;
}

namespace {

class SigningEquivocator final : public sim::Adversary {
 public:
  SigningEquivocator(const SignatureAuthority& authority,
                     std::vector<NodeId> faulty, Value a, Value b)
      : authority_(authority), faulty_(std::move(faulty)), a_(a), b_(b) {
    std::sort(faulty_.begin(), faulty_.end());
  }

  std::optional<sim::Message> corrupt(const sim::Message& msg) override {
    const bool chain_all_faulty = std::all_of(
        msg.path.begin(), msg.path.end(), [this](NodeId hop) {
          return std::binary_search(faulty_.begin(), faulty_.end(), hop);
        });
    if (!chain_all_faulty) return msg;  // cannot re-sign honest signatures
    sim::Message out = msg;
    out.value = msg.to % 2 == 0 ? a_ : b_;
    out.aux = static_cast<std::int64_t>(
        authority_.chain_tag(out.path, out.value));
    return out;
  }

 private:
  const SignatureAuthority& authority_;
  std::vector<NodeId> faulty_;
  Value a_;
  Value b_;
};

class BlindTamperer final : public sim::Adversary {
 public:
  explicit BlindTamperer(Value lie) : lie_(lie) {}
  std::optional<sim::Message> corrupt(const sim::Message& msg) override {
    sim::Message out = msg;
    out.value = lie_;  // chain tag left stale: receivers will reject
    return out;
  }

 private:
  Value lie_;
};

}  // namespace

std::unique_ptr<sim::Adversary> signing_equivocator(
    const SignatureAuthority& authority, std::vector<NodeId> faulty, Value a,
    Value b) {
  return std::make_unique<SigningEquivocator>(authority, std::move(faulty),
                                              a, b);
}

std::unique_ptr<sim::Adversary> blind_tamperer(Value lie) {
  return std::make_unique<BlindTamperer>(lie);
}

}  // namespace da::protocols::authenticated
