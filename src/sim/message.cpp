#include "sim/message.hpp"

namespace da::sim {

std::string Message::to_string() const {
  std::string s = "msg(" + std::to_string(from) + "->" + std::to_string(to) +
                  " r" + std::to_string(round) + " " + path.to_string() + " " +
                  value.to_string();
  if (aux != 0) s += " aux=" + std::to_string(aux);
  return s + ")";
}

}  // namespace da::sim
