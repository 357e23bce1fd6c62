#include "sim/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <tuple>

namespace da::sim {

namespace {

// The one transcript order. The value/aux tiebreak keeps it total when an
// adversary or a duplicating network delivers several messages in one
// (to, round, from, path) slot, so same-slot messages never keep their
// runtime-dependent delivery order. `sort_inbox` (sim/runner.cpp) keeps
// its own order on purpose: it decides which duplicate an EIG slot admits
// first, and changing it would move decisions.
bool transcript_before(const Message& a, const Message& b) {
  const auto key = [](const Message& m) {
    return std::tuple<NodeId, int, NodeId, const Path&, bool, std::int64_t,
                      std::int64_t>(m.to, m.round, m.from, m.path,
                                    m.value.is_default(), m.value.raw(),
                                    m.aux);
  };
  return key(a) < key(b);
}

}  // namespace

std::vector<Message> Trace::canonical() const {
  std::vector<Message> out = delivered_;
  std::sort(out.begin(), out.end(), transcript_before);
  return out;
}

std::vector<Message> Trace::received(NodeId node) const {
  std::vector<Message> out;
  std::copy_if(delivered_.begin(), delivered_.end(), std::back_inserter(out),
               [node](const Message& m) { return m.to == node; });
  std::sort(out.begin(), out.end(), transcript_before);
  return out;
}

std::string Trace::transcript(NodeId node) const {
  std::string out;
  for (const Message& m : received(node)) {
    out += m.to_string();
    out += '\n';
  }
  return out;
}

bool Trace::indistinguishable_for(NodeId node, const Trace& other) const {
  return received(node) == other.received(node);
}

std::vector<NodeId> Trace::nodes() const {
  std::vector<NodeId> out;
  for (const Message& m : delivered_) out.push_back(m.to);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace da::sim
