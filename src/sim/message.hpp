#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/ids.hpp"
#include "util/path.hpp"
#include "util/value.hpp"

namespace da::sim {

/// A point-to-point message. All protocols in this repository are
/// synchronous-round protocols: a message produced in round r is delivered
/// at the start of round r (the runner enforces the discipline).
///
/// `path` is the relay chain used by EIG protocols (BYZ / OM / IC); for
/// other payloads (clock readings, channel outputs) it is empty and `aux`
/// carries auxiliary data.
struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  int round = 0;
  Path path{};
  Value value{};
  std::int64_t aux = 0;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Size of `msg` under a compact reference wire encoding, in bytes. Used
/// by the metrics layer to account bits-on-wire: 4-byte from/to/round, a
/// length-prefixed path (1 byte length + 1 byte per hop), a 1-byte value
/// tag plus an 8-byte payload for non-default values, and an 8-byte aux
/// field only when aux is nonzero.
[[nodiscard]] inline std::size_t wire_size_bytes(const Message& msg) {
  std::size_t bytes = 4 + 4 + 4;            // from, to, round
  bytes += 1 + msg.path.size();             // path length + hops
  bytes += msg.value.is_default() ? 1 : 9;  // value tag (+ payload)
  if (msg.aux != 0) bytes += 8;
  return bytes;
}

}  // namespace da::sim
