#include "rt/threaded_runner.hpp"

#include <barrier>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "rt/mailbox.hpp"
#include "util/contracts.hpp"

namespace da::rt {

ThreadedRunner::ThreadedRunner(
    std::vector<std::unique_ptr<sim::Process>> processes,
    sim::RunOptions options)
    : processes_(std::move(processes)), options_(std::move(options)) {
  DA_EXPECTS(!processes_.empty());
  DA_EXPECTS(options_.faulty.empty() || options_.adversary != nullptr);
}

sim::RunResult ThreadedRunner::run() {
  const int rounds = processes_[0]->total_rounds();
  for (const auto& p : processes_) DA_EXPECTS(p->total_rounds() == rounds);

  static const obs::Counter executions("rt.executions");
  static const obs::Counter sent("rt.messages_sent");
  static const obs::Counter delivered_count("rt.messages_delivered");
  static const obs::Counter wire_bytes("rt.wire_bytes");
  static const obs::Counter fabrications_dropped("rt.fabrications_dropped");
  static const obs::Quantile run_ms("rt.run_ms");
  const obs::MetricsScope metrics_scope;
  const obs::ScopedTimer run_timer(run_ms);
  executions.add();

  const std::size_t n = processes_.size();
  const sim::NodeIndex index(processes_);  // asserts ids unique
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  mailboxes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mailboxes.push_back(std::make_unique<Mailbox>(rounds));
  }

  std::barrier barrier(static_cast<std::ptrdiff_t>(n));
  std::mutex shared_mutex;  // serializes adversary/network/trace/counters
  sim::RunResult result;
  result.rounds = rounds;
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto dispatch = [&](std::vector<sim::Message>&& outbox, NodeId from,
                            int round, bool fabricated, bool faulty) {
    for (sim::Message& msg : outbox) {
      DA_EXPECTS(msg.from == from);
      msg.round = round;
      std::vector<sim::Message> copies;
      {
        const std::lock_guard<std::mutex> lock(shared_mutex);
        ++result.messages_sent;
        copies = sim::filter_fanout(msg, options_, faulty, fabricated);
        // Fabricated messages may target non-participants: drop them
        // before they are counted as delivered, traced, or deposited.
        std::erase_if(copies, [&](const sim::Message& copy) {
          if (index.at(copy.to) != sim::NodeIndex::npos) return false;
          DA_EXPECTS(fabricated);
          fabrications_dropped.add();
          return true;
        });
        result.messages_delivered += copies.size();
        if (options_.trace != nullptr) {
          for (const sim::Message& delivered : copies) {
            options_.trace->record(delivered);
          }
        }
        if (options_.spans != nullptr) {
          options_.spans->note_send(round, 1);
          options_.spans->note_deliver(round, copies.size());
        }
      }
      sent.add();
      for (const sim::Message& delivered : copies) {
        delivered_count.add();
        wire_bytes.add(sim::wire_size_bytes(delivered));
        mailboxes[index.at(delivered.to)]->deposit(round, delivered);
      }
    }
  };

  const auto node_main = [&](sim::Process& proc) {
    // Flush this node thread's staged metric deltas before it joins (TLS
    // writes in dispatch() need no lock; the merge happens here, once).
    const obs::MetricsScope node_metrics_scope;
    try {
      const NodeId self = proc.id();
      const bool faulty = sim::is_faulty(options_, self);
      const std::size_t my_index = index.at(self);

      // Round-0 send phase.
      dispatch(proc.start(), self, 0, /*fabricated=*/false, faulty);
      if (faulty) {
        std::vector<sim::Message> extra;
        {
          const std::lock_guard<std::mutex> lock(shared_mutex);
          extra = options_.adversary->fabricate(self, 0);
        }
        dispatch(std::move(extra), self, 0, /*fabricated=*/true, faulty);
      }
      barrier.arrive_and_wait();

      for (int r = 0; r < rounds; ++r) {
        const std::vector<sim::Message> inbox = mailboxes[my_index]->drain(r);
        std::vector<sim::Message> outbox = proc.on_round(r, inbox);
        if (options_.spans != nullptr) {
          const std::lock_guard<std::mutex> lock(shared_mutex);
          options_.spans->note_resolve(r, 1);
        }
        if (r + 1 < rounds) {
          dispatch(std::move(outbox), self, r + 1, /*fabricated=*/false,
                   faulty);
          if (faulty) {
            std::vector<sim::Message> extra;
            {
              const std::lock_guard<std::mutex> lock(shared_mutex);
              extra = options_.adversary->fabricate(self, r + 1);
            }
            dispatch(std::move(extra), self, r + 1, /*fabricated=*/true,
                     faulty);
          }
        }
        barrier.arrive_and_wait();
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      // Keep the barrier protocol alive so sibling threads do not hang:
      // this thread has already arrived an unknown number of times, so the
      // only safe option is to drop out of the barrier entirely.
      barrier.arrive_and_drop();
    }
  };

  {
    std::vector<std::jthread> threads;
    threads.reserve(n);
    for (const auto& p : processes_) {
      threads.emplace_back([&node_main, &p] { node_main(*p); });
    }
  }  // join

  if (first_error) std::rethrow_exception(first_error);
  if (options_.spans != nullptr) options_.spans->note_done(rounds);

  for (const auto& p : processes_) result.decisions[p->id()] = p->decide();
  return result;
}

}  // namespace da::rt
