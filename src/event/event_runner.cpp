#include "event/event_runner.hpp"

#include <algorithm>
#include <queue>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace da::event {

namespace {

enum class Kind { kSend, kArrival, kDeadline };

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // ties broken by schedule order: deterministic
  Kind kind = Kind::kSend;
  std::size_t node_index = 0;  // the node (kSend / kDeadline) or the
                               // receiver (kArrival)
  int round = 0;
  sim::Message msg{};  // kArrival
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

double latency_of(const TimingModel& timing, const sim::Message& msg) {
  std::uint64_t h = mix64(timing.seed, static_cast<std::uint64_t>(msg.from));
  h = mix64(h, static_cast<std::uint64_t>(msg.to));
  h = mix64(h, static_cast<std::uint64_t>(msg.round));
  h = mix64(h, msg.path.hash());
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return timing.min_latency +
         unit * (timing.max_latency - timing.min_latency);
}

/// Real time at which `clock` reads `local`.
double real_of(const clocksync::HardwareClock& clock, double local) {
  return (local - clock.offset()) / (1.0 + clock.drift());
}

}  // namespace

EventRunner::EventRunner(std::vector<std::unique_ptr<sim::Process>> processes,
                         sim::RunOptions options, TimingModel timing,
                         std::vector<clocksync::HardwareClock> clocks)
    : processes_(std::move(processes)),
      options_(std::move(options)),
      timing_(timing),
      clocks_(std::move(clocks)) {
  DA_EXPECTS(!processes_.empty());
  DA_EXPECTS(clocks_.size() == processes_.size());
  DA_EXPECTS(options_.faulty.empty() || options_.adversary != nullptr);
  DA_EXPECTS(timing_.round_period > 0.0);
  DA_EXPECTS(timing_.timeout > 0.0 &&
             timing_.timeout <= timing_.round_period);
  DA_EXPECTS(timing_.min_latency >= 0.0 &&
             timing_.min_latency <= timing_.max_latency);
}

EventRunResult EventRunner::run() {
  const int rounds = processes_[0]->total_rounds();
  for (const auto& p : processes_) DA_EXPECTS(p->total_rounds() == rounds);
  const std::size_t n = processes_.size();

  static const obs::Counter executions("event.executions");
  static const obs::Counter sent("event.messages_sent");
  static const obs::Counter delivered_count("event.messages_delivered");
  static const obs::Counter false_timeouts("event.false_timeouts");
  static const obs::Quantile run_ms("event.run_ms");
  const obs::MetricsScope metrics_scope;
  const obs::ScopedTimer run_timer(run_ms);
  executions.add();

  // Asserts ids unique and faulty ids known.
  const sim::NodeIndex index(processes_, options_.faulty);

  EventRunResult result;
  result.base.rounds = rounds;

  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::uint64_t seq = 0;

  // Pre-schedule every node's send and deadline instants. For node i,
  // round r: send at local r*P, inbox closes at local r*P + T. Pushing
  // Deadline(r) right after Send(r) keeps same-instant ties (T == P)
  // ordered deadline-before-next-send per node.
  for (std::size_t i = 0; i < n; ++i) {
    for (int r = 0; r < rounds; ++r) {
      const double local = r * timing_.round_period;
      queue.push(Event{.time = real_of(clocks_[i], local),
                       .seq = seq++,
                       .kind = Kind::kSend,
                       .node_index = i,
                       .round = r});
      queue.push(Event{.time = real_of(clocks_[i], local + timing_.timeout),
                       .seq = seq++,
                       .kind = Kind::kDeadline,
                       .node_index = i,
                       .round = r});
    }
  }

  // inbox[i][r]: messages buffered for node i's round r while it is open.
  std::vector<std::vector<std::vector<sim::Message>>> inbox(
      n, std::vector<std::vector<sim::Message>>(
             static_cast<std::size_t>(rounds)));
  std::vector<std::vector<bool>> closed(
      n, std::vector<bool>(static_cast<std::size_t>(rounds), false));
  // Round r+1 sends, produced by on_round(r) and held until the send event.
  std::vector<std::vector<sim::Message>> pending_outbox(n);

  // Sends are counted when routed; deliveries only on arrival, since a
  // message that lands after the receiver's deadline was never delivered.
  const auto dispatch = [&](std::vector<sim::Message>& outbox,
                            std::size_t from_index, int round, double now,
                            bool fabricated) {
    if (outbox.empty()) return;
    result.base.messages_sent += outbox.size();
    sent.add(outbox.size());
    if (options_.spans != nullptr) {
      options_.spans->note_send(round, outbox.size());
    }
    sim::route(outbox, processes_[from_index]->id(), round, fabricated,
               options_, index,
               [&](std::size_t to, const sim::Message& delivered) {
                 double latency = latency_of(timing_, delivered);
                 if (options_.network != nullptr) {
                   // Injection holdback: deliver later within the
                   // receiver's round window. The fraction applies to the
                   // window remaining after the link latency, so (with
                   // clocks synchronized and max_latency <= timeout) a
                   // held-back message still beats the deadline.
                   const double frac = options_.network->holdback(delivered);
                   if (frac > 0.0 && timing_.timeout > latency) {
                     latency += frac * (timing_.timeout - latency);
                   }
                 }
                 queue.push(Event{.time = now + latency,
                                  .seq = seq++,
                                  .kind = Kind::kArrival,
                                  .node_index = to,
                                  .round = round,
                                  .msg = delivered});
               });
  };

  while (!queue.empty()) {
    const Event event = queue.top();
    queue.pop();
    switch (event.kind) {
      case Kind::kSend: {
        sim::Process& proc = *processes_[event.node_index];
        std::vector<sim::Message>& outbox = pending_outbox[event.node_index];
        if (event.round == 0) proc.start(outbox);
        dispatch(outbox, event.node_index, event.round, event.time,
                 /*fabricated=*/false);
        outbox.clear();  // keep capacity for on_round to append into
        if (index.faulty(proc.id())) {
          std::vector<sim::Message> fabricated =
              options_.adversary->fabricate(proc.id(), event.round);
          dispatch(fabricated, event.node_index, event.round, event.time,
                   /*fabricated=*/true);
        }
        break;
      }
      case Kind::kArrival: {
        const std::size_t to = event.node_index;
        const int r = event.msg.round;
        if (r < 0 || r >= rounds) break;
        if (closed[to][static_cast<std::size_t>(r)]) {
          // Arrived after the receiver's deadline: the receiver has already
          // declared this message absent — Section 6.1's false timeout.
          ++result.false_timeouts;
          false_timeouts.add();
          break;
        }
        ++result.base.messages_delivered;
        delivered_count.add();
        if (options_.spans != nullptr) options_.spans->note_deliver(r, 1);
        if (options_.trace != nullptr) options_.trace->record(event.msg);
        inbox[to][static_cast<std::size_t>(r)].push_back(event.msg);
        break;
      }
      case Kind::kDeadline: {
        sim::Process& proc = *processes_[event.node_index];
        const std::size_t r = static_cast<std::size_t>(event.round);
        closed[event.node_index][r] = true;
        std::vector<sim::Message> box;
        box.swap(inbox[event.node_index][r]);
        sim::sort_inbox(box);
        if (options_.spans != nullptr) {
          options_.spans->note_resolve(event.round, 1);
        }
        // Send(r) emptied the outbox before this Deadline(r), and
        // Send(r+1) dispatches what on_round appends here.
        std::vector<sim::Message>& next = pending_outbox[event.node_index];
        proc.on_round(event.round, box, next);
        if (event.round + 1 == rounds) {
          next.clear();  // sends from the final round have nowhere to go
          result.completion_time =
              std::max(result.completion_time, event.time);
        }
        break;
      }
    }
  }

  if (options_.spans != nullptr) options_.spans->note_done(rounds);
  for (const auto& p : processes_) {
    result.base.decisions[p->id()] = p->decide();
  }
  return result;
}

std::vector<clocksync::HardwareClock> perfect_clocks(int n) {
  DA_EXPECTS(n >= 1);
  return std::vector<clocksync::HardwareClock>(
      static_cast<std::size_t>(n), clocksync::HardwareClock(0.0, 0.0));
}

std::vector<clocksync::HardwareClock> skewed_clocks(int n,
                                                    double offset_spread,
                                                    double drift,
                                                    std::uint64_t seed) {
  DA_EXPECTS(n >= 1);
  Rng rng(seed);
  std::vector<clocksync::HardwareClock> clocks;
  clocks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    clocks.emplace_back((rng.uniform() * 2 - 1) * offset_spread,
                        (rng.uniform() * 2 - 1) * drift);
  }
  return clocks;
}

}  // namespace da::event
