#include "sim/runner.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/round_engine.hpp"
#include "util/contracts.hpp"

namespace da::sim {

NodeIndex::NodeIndex(const std::vector<std::unique_ptr<Process>>& processes,
                     const std::vector<NodeId>& faulty) {
  NodeId max_id = -1;
  for (const auto& p : processes) {
    DA_EXPECTS(p->id() >= 0);
    max_id = std::max(max_id, p->id());
  }
  index_.assign(static_cast<std::size_t>(max_id) + 1, Entry{});
  for (std::size_t i = 0; i < processes.size(); ++i) {
    Entry& entry = index_[static_cast<std::size_t>(processes[i]->id())];
    DA_EXPECTS(entry.position == npos);  // ids unique
    entry.position = i;
  }
  for (const NodeId f : faulty) {
    DA_EXPECTS(at(f) != npos);  // faulty ids are process ids
    index_[static_cast<std::size_t>(f)].faulty = true;
  }
  count_ = processes.size();
}

void count_dropped_fabrication() {
  static const obs::Counter dropped("sim.fabrications_dropped");
  dropped.add();
}

void sort_inbox(std::vector<Message>& inbox) {
  // Total order: a fabricating adversary may inject duplicates of a
  // (from, path) slot with different contents, and every runtime must
  // present them to the process in the same order.
  const auto before = [](const Message& a, const Message& b) {
    if (a.from != b.from) return a.from < b.from;
    if (const auto order = a.path <=> b.path; order != 0) return order < 0;
    if (a.value != b.value) return a.value < b.value;
    return a.aux < b.aux;
  };
  // The round engine dispatches senders in id order and an EIG relay
  // sends its paths in inbox order, so most inboxes arrive sorted: one
  // linear check then replaces the sort.
  if (!std::is_sorted(inbox.begin(), inbox.end(), before)) {
    std::sort(inbox.begin(), inbox.end(), before);
  }
}

SyncRunner::SyncRunner(std::vector<std::unique_ptr<Process>> processes,
                       RunOptions options)
    : processes_(std::move(processes)), options_(std::move(options)) {
  DA_EXPECTS(!processes_.empty());
  DA_EXPECTS(options_.faulty.empty() || options_.adversary != nullptr);
  for (NodeId f : options_.faulty) {
    const bool known = std::any_of(
        processes_.begin(), processes_.end(),
        [f](const auto& p) { return p->id() == f; });
    DA_EXPECTS(known);
  }
}

RunResult SyncRunner::run() {
  return RoundEngine(std::move(processes_), std::move(options_)).run();
}

}  // namespace da::sim
