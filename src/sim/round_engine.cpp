#include "sim/round_engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "sweep/thread_pool.hpp"
#include "util/contracts.hpp"

namespace da::sim {

namespace {

const obs::Counter& executions_counter() {
  static const obs::Counter c("sim.executions");
  return c;
}
const obs::Counter& rounds_counter() {
  static const obs::Counter c("sim.rounds");
  return c;
}
const obs::Counter& sent_counter() {
  static const obs::Counter c("sim.messages_sent");
  return c;
}
const obs::Counter& delivered_counter() {
  static const obs::Counter c("sim.messages_delivered");
  return c;
}
const obs::Counter& wire_bytes_counter() {
  static const obs::Counter c("sim.wire_bytes");
  return c;
}

}  // namespace

RoundEngine::RoundEngine(std::vector<std::unique_ptr<Process>> processes,
                         RunOptions options)
    : processes_(std::move(processes)),
      options_(std::move(options)),
      index_(processes_, options_.faulty) {
  DA_EXPECTS(!processes_.empty());
  DA_EXPECTS(options_.faulty.empty() || options_.adversary != nullptr);
  rounds_ = processes_[0]->total_rounds();
  for (const auto& p : processes_) DA_EXPECTS(p->total_rounds() == rounds_);
  const std::size_t n = processes_.size();
  pending_.resize(n);
  inboxes_.resize(n);
}

void RoundEngine::begin() {
  DA_EXPECTS(!begun_);
  executions_counter().add();
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    processes_[i]->start(pending_[i]);
  }
  pending_round_ = 0;
  begun_ = true;
  dispatched_ = false;
}

void RoundEngine::dispatch(std::vector<Message>& outbox, NodeId from,
                           int round, bool fabricated) {
  // Metric deltas are batched per dispatch call — identical totals, one
  // thread-local add per metric instead of three per message.
  std::uint64_t delivered = 0;
  std::uint64_t wire_bytes = 0;
  route(outbox, from, round, fabricated, options_, index_, copies_,
        [&](std::size_t to, const Message& copy, double /*holdback*/) {
          ++delivered;
          wire_bytes += wire_size_bytes(copy);
          if (options_.trace != nullptr) options_.trace->record(copy);
          inboxes_[to].push_back(copy);
        });
  const std::uint64_t sent = outbox.size();
  messages_sent_ += sent;
  messages_delivered_ += delivered;
  if (sent != 0) sent_counter().add(sent);
  if (delivered != 0) delivered_counter().add(delivered);
  if (wire_bytes != 0) wire_bytes_counter().add(wire_bytes);
}

void RoundEngine::dispatch_pending() {
  DA_EXPECTS(begun_ && !dispatched_ && !done());
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    dispatch(pending_[i], processes_[i]->id(), pending_round_,
             /*fabricated=*/false);
    pending_[i].clear();  // keep capacity for the next collect
    if (index_.faulty(processes_[i]->id())) {
      std::vector<Message> fabricated =
          options_.adversary->fabricate(processes_[i]->id(), pending_round_);
      dispatch(fabricated, processes_[i]->id(), pending_round_,
               /*fabricated=*/true);
    }
  }
  dispatched_ = true;
}

void RoundEngine::step_node(std::size_t i) {
  const int r = rounds_processed_;
  std::vector<Message>& inbox = inboxes_[i];
  sort_inbox(inbox);
  processes_[i]->on_round(r, inbox, pending_[i]);
  inbox.clear();  // keep capacity for the next round's dispatch
  // Messages sent from the final round are discarded, uncounted.
  if (r + 1 == rounds_) pending_[i].clear();
}

void RoundEngine::process_round(sweep::ThreadPool* pool) {
  DA_EXPECTS(begun_ && dispatched_ && !done());
  rounds_counter().add();
  const std::size_t n = processes_.size();
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) step_node(i);
  } else {
    // A node's step touches only its own process, inbox and outbox, so
    // the chunks share nothing. The caller steps a chunk too, hence one
    // chunk per worker plus one.
    const std::size_t chunks =
        std::min(n, static_cast<std::size_t>(pool->threads()) + 1);
    pool->fork_join(chunks, [this, chunks, n](std::size_t c) {
      for (std::size_t i = c; i < n; i += chunks) step_node(i);
    });
  }
  const int r = rounds_processed_;
  rounds_processed_ = r + 1;
  pending_round_ = r + 1;
  dispatched_ = false;
}

RunResult RoundEngine::finish() const {
  RunResult result;
  finish_into(result);
  return result;
}

void RoundEngine::finish_into(RunResult& out) const {
  DA_EXPECTS(done());
  out.decisions.clear();
  for (const auto& p : processes_) out.decisions[p->id()] = p->decide();
  out.messages_sent = messages_sent_;
  out.messages_delivered = messages_delivered_;
  out.rounds = rounds_;
}

RunResult RoundEngine::run(sweep::ThreadPool* pool) {
  const obs::MetricsScope metrics_scope;
  if (!begun_) begin();
  while (!done()) {
    dispatch_pending();
    process_round(pool);
  }
  return finish();
}

RoundEngine::Snapshot RoundEngine::snapshot() const {
  DA_EXPECTS(begun_ && !dispatched_);
  Snapshot snap;
  snap.processes.reserve(processes_.size());
  for (const auto& p : processes_) snap.processes.push_back(p->clone());
  snap.pending = pending_;
  snap.pending_round = pending_round_;
  snap.rounds_processed = rounds_processed_;
  snap.begun = begun_;
  snap.messages_sent = messages_sent_;
  snap.messages_delivered = messages_delivered_;
  if (options_.trace != nullptr) {
    snap.trace = *options_.trace;
    snap.trace_attached = true;
  }
  return snap;
}

void RoundEngine::restore(const Snapshot& snap) {
  DA_EXPECTS(snap.processes.size() == processes_.size());
  DA_EXPECTS((options_.trace != nullptr) == snap.trace_attached);
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    processes_[i]->assign_from(*snap.processes[i]);
  }
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    pending_[i] = snap.pending[i];  // copy-assign: reuses capacity
    inboxes_[i].clear();
  }
  pending_round_ = snap.pending_round;
  rounds_processed_ = snap.rounds_processed;
  begun_ = snap.begun;
  dispatched_ = false;
  messages_sent_ = snap.messages_sent;
  messages_delivered_ = snap.messages_delivered;
  if (snap.trace_attached) *options_.trace = snap.trace;
}

}  // namespace da::sim
