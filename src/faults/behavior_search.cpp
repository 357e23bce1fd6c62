#include "faults/behavior_search.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/byz.hpp"
#include "faults/canon.hpp"
#include "obs/metrics.hpp"
#include "sim/round_engine.hpp"
#include "sweep/shard.hpp"
#include "util/contracts.hpp"

namespace da::faults {

namespace {

// Checkpoint-engine accounting (counter names are interned process-wide,
// so these are the same metrics search.cpp writes).
const obs::Counter& checkpoints_counter() {
  static const obs::Counter c("search.checkpoints");
  return c;
}
const obs::Counter& forks_counter() {
  static const obs::Counter c("search.forks");
  return c;
}
const obs::Counter& rounds_replayed_counter() {
  static const obs::Counter c("search.rounds_replayed");
  return c;
}
const obs::Counter& rounds_skipped_counter() {
  static const obs::Counter c("search.rounds_skipped");
  return c;
}

// Symmetry-reduction accounting (docs/OBSERVABILITY.md).
const obs::Counter& canon_representatives_counter() {
  static const obs::Counter c("search.canon.representatives");
  return c;
}
const obs::Counter& canon_skipped_counter() {
  static const obs::Counter c("search.canon.skipped");
  return c;
}
const obs::Counter& canon_weight_counter() {
  static const obs::Counter c("search.canon.weight");
  return c;
}

// Subset-conjugacy accounting: classes walked, conjugate subsets they
// stand for, and subsets skipped entirely (members - classes).
const obs::Counter& subset_classes_counter() {
  static const obs::Counter c("search.canon.subset_classes");
  return c;
}
const obs::Counter& subset_members_counter() {
  static const obs::Counter c("search.canon.subset_members");
  return c;
}
const obs::Counter& subset_skipped_counter() {
  static const obs::Counter c("search.canon.subset_skipped");
  return c;
}

// Frontier-driver accounting.
const obs::Counter& frontier_runs_counter() {
  static const obs::Counter c("search.frontier.runs");
  return c;
}
const obs::Counter& frontier_resumed_counter() {
  static const obs::Counter c("search.frontier.shards_resumed");
  return c;
}
const obs::Counter& frontier_checkpoints_counter() {
  static const obs::Counter c("search.frontier.checkpoints");
  return c;
}

/// Every message a faulty node emits in a depth-2 instance, keyed by
/// (from, to). Round-0 slots exist only for a faulty sender; round-1
/// relay slots for each faulty receiver (destinations outside {sender,
/// self} — relaying *to* the sender is useless, as the sender ignores
/// paths containing itself). Overwrites `slots`, reusing its capacity.
void controlled_slots(const ScenarioSpec& spec,
                      std::vector<std::pair<NodeId, NodeId>>& slots) {
  slots.clear();
  for (NodeId from : spec.faulty) {
    if (from == spec.sender) {
      for (NodeId to = 0; to < spec.config.n; ++to) {
        if (to != from) slots.emplace_back(from, to);
      }
    } else {
      for (NodeId to = 0; to < spec.config.n; ++to) {
        if (to != from && to != spec.sender) slots.emplace_back(from, to);
      }
    }
  }
}

/// Plays one behaviour table over a dense n*n (from, to) grid. Mutable
/// (`set`) so the checkpoint walk re-points individual slots between forks
/// without rebuilding the adversary or allocating.
class TableAdversary final : public sim::Adversary {
 public:
  TableAdversary(int n, const std::vector<std::pair<NodeId, NodeId>>& slots)
      : n_(static_cast<std::size_t>(n)),
        values_(n_ * n_, Value::def()),
        controlled_(n_ * n_, 0) {
    for (const auto& [from, to] : slots) controlled_[cell(from, to)] = 1;
  }

  void set(std::pair<NodeId, NodeId> slot, Value value) {
    DA_EXPECTS(controlled_[cell(slot.first, slot.second)] != 0);
    values_[cell(slot.first, slot.second)] = value;
  }

  std::optional<sim::Message> corrupt(const sim::Message& msg) override {
    const std::size_t c = cell(msg.from, msg.to);
    if (controlled_[c] == 0) return msg;  // e.g. relay addressed to sender
    sim::Message out = msg;
    out.value = values_[c];
    return out;
  }

 private:
  [[nodiscard]] std::size_t cell(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * n_ + static_cast<std::size_t>(to);
  }

  std::size_t n_;
  std::vector<Value> values_;
  std::vector<char> controlled_;
};

constexpr std::uint64_t kSymbols = 4;

/// The canonical four-symbol alphabet (see the header comment).
std::array<Value, kSymbols> alphabet_for(Value sender_value) {
  return {sender_value, Value::of(100001), Value::of(100002), Value::def()};
}

/// Applies the base-4 digits of `counter` at slot positions [first, last).
/// Digits are *big-endian*: slot 0 is the most-significant digit, so a
/// contiguous ordinal block that shares its leading digits (exactly what
/// `ShardPlan::append_pow4` produces) shares its leading — i.e. round-0 —
/// slot assignments, which is what lets the checkpoint walk fork at the
/// round boundary. `fn(slot_index, value)` is a template parameter so the
/// per-execution inner loop inlines instead of dispatching through a
/// `std::function`.
template <typename SlotFn>
void apply_digits(std::uint64_t counter, std::size_t slots, std::size_t first,
                  std::size_t last, const std::array<Value, kSymbols>& alphabet,
                  SlotFn&& fn) {
  for (std::size_t i = first; i < last; ++i) {
    const std::uint64_t sym = (counter >> (2 * (slots - 1 - i))) & 3;
    fn(i, alphabet[sym]);
  }
}

std::uint64_t pow_symbols(std::size_t slots) {
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < slots; ++i) total *= kSymbols;
  return total;
}

/// One faulty subset's slice of the global enumeration: `base` is the
/// global ordinal of its behaviour #0. Segments are built in the serial
/// scan order (f ascending, subsets lexicographic), so the global ordinal
/// order *is* the serial scan order and the parallel sweep's first hit is
/// the serial search's first hit.
struct Segment {
  ScenarioSpec spec;
  std::vector<std::pair<NodeId, NodeId>> slots;
  SlotSymmetry sym;
  std::uint64_t base = 0;
  /// Conjugate subsets this segment stands for: every visit weight is
  /// multiplied by it.
  std::uint64_t class_size = 1;
  /// Leading slots that are the faulty sender's round-0 broadcast (0 when
  /// the sender is honest). Everything after is a round-1 relay slot.
  std::size_t round0_slots = 0;
};

/// The one walk over the unreduced enumeration, in serial scan order (f
/// ascending, subsets lexicographic, sender at node 0): calls
/// fn(spec, slots) once per faulty subset. Both are reused across calls
/// (no allocation per subset once warm), so `fn` copies what it keeps.
template <typename SegmentFn>
void for_each_segment(const Config& config, int limit, SegmentFn&& fn) {
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(7);
  std::vector<std::pair<NodeId, NodeId>> slots;
  for (int f = 1; f <= limit; ++f) {
    for_each_subset(config.n, f, [&](const std::vector<NodeId>& faulty) {
      spec.faulty = faulty;
      controlled_slots(spec, slots);
      fn(std::as_const(spec), std::as_const(slots));
    });
  }
}

int resolve_limit(const Config& config, int max_f) {
  return max_f < 0 ? config.u : max_f;
}

/// Shard-local replay state for the checkpoint walk. Each shard is scanned
/// by exactly one pool worker, so no locking; the engine, adversary and
/// snapshots persist across the shard's ordinals and are reused in place.
struct ShardState {
  const Segment* segment = nullptr;
  std::unique_ptr<TableAdversary> adversary;
  std::unique_ptr<sim::RoundEngine> engine;
  sim::RoundEngine::Snapshot start;   // pre-dispatch(0): behaviour-independent
  sim::RoundEngine::Snapshot round1;  // pre-dispatch(1): fixed round-0 digits
  std::uint64_t round0_digits = 0;    // digit prefix `round1` was built for
  bool has_round1 = false;
  sim::RunResult result;
};

/// One constructed behaviour sweep: segments, shard plan, and the visitor
/// state shared by the one-shot search and the resumable frontier driver.
/// It walks the one quotient of docs/SEARCH.md §5–§6: receiver orbits
/// within a segment, subset conjugacy across segments.
class BehaviorSweep {
 public:
  /// Lays the segments out on the plan. Ordinals always advance over
  /// *every* subset — the global ordinal space stays the unreduced one —
  /// but only one subset per conjugacy class materializes as a Segment;
  /// the rest become gaps the plan skips. Representatives are the
  /// lexicographically-first subsets of their class, which is also the
  /// class member with the smallest base, so the quotient walk's first
  /// hit is the full enumeration's first hit (docs/SEARCH.md §6).
  BehaviorSweep(const Config& config, int limit) {
    DA_EXPECTS(behavior_search_unsupported(config, limit).empty());
    for_each_segment(config, limit, [&](const ScenarioSpec& spec,
                                        const auto& slots) {
      if (!is_subset_representative(config.n, spec.sender, spec.faulty)) {
        subset_skipped_counter().add();
        plan_.skip(pow_symbols(slots.size()));
        return;
      }
      Segment& seg = segments_.emplace_back();
      seg.base = plan_.append_pow4(slots.size());
      seg.spec = spec;
      seg.slots = slots;
      seg.sym = make_slot_symmetry(seg.spec, seg.slots);
      seg.round0_slots = seg.spec.sender_faulty()
                             ? static_cast<std::size_t>(config.n - 1)
                             : 0;
      // The sender is node 0 and subsets are sorted, so its round-0 slots
      // are exactly the leading run — the digit split relies on that.
      for (std::size_t i = 0; i < seg.slots.size(); ++i) {
        DA_EXPECTS((seg.slots[i].first == seg.spec.sender) ==
                   (i < seg.round0_slots));
      }
      seg.class_size =
          subset_class_size(config.n, seg.spec.sender, seg.spec.faulty);
      subset_classes_counter().add();
      subset_members_counter().add(seg.class_size);
    });
    candidates_.resize(plan_.shard_count());
    shard_states_.resize(plan_.shard_count());
  }

  [[nodiscard]] const sweep::ShardPlan& plan() const { return plan_; }

  /// The conjugacy-class table in frontier form.
  [[nodiscard]] std::vector<FrontierClass> classes() const {
    std::vector<FrontierClass> out;
    out.reserve(segments_.size());
    for (const Segment& seg : segments_) {
      FrontierClass cls;
      cls.base = seg.base;
      cls.size = pow_symbols(seg.slots.size());
      cls.weight = seg.class_size;
      out.push_back(cls);
    }
    return out;
  }

  [[nodiscard]] sweep::Visitor visitor() {
    return [this](std::uint64_t ordinal, std::size_t shard, Rng&) {
      return visit(ordinal, shard);
    };
  }

  [[nodiscard]] const std::optional<Violation>& candidate(
      std::size_t shard) const {
    return candidates_[shard];
  }

 private:
  [[nodiscard]] const Segment& segment_of(std::uint64_t ordinal) const {
    const auto seg_it = std::prev(std::upper_bound(
        segments_.begin(), segments_.end(), ordinal,
        [](std::uint64_t o, const Segment& s) { return o < s.base; }));
    return *seg_it;
  }

  sweep::Visit visit(std::uint64_t ordinal, std::size_t shard) {
    static const obs::Counter byz_executions("protocol.byz.executions");
    static const obs::Counter byz_messages("protocol.byz.messages_sent");
    const Segment& seg = segment_of(ordinal);
    const std::uint64_t counter = ordinal - seg.base;
    const std::size_t slots = seg.slots.size();
    const auto alphabet = alphabet_for(seg.spec.sender_value);

    // Weight starts at the subset-conjugacy class size and picks up the
    // receiver-orbit size below; the product is what a clean sweep
    // reconciles against the full unreduced space.
    std::uint64_t weight = seg.class_size;
    if (!seg.sym.trivial()) {
      // Non-canonical prefix: leap to the orbit's next representative.
      // Every ordinal in between shares a "column j > column j+1"
      // certificate, so nothing executable is skipped.
      const std::uint64_t canon = next_canonical(seg.sym, counter);
      if (canon != counter) {
        canon_skipped_counter().add(canon - counter);
        sweep::Visit skip;
        skip.executions = 0;
        skip.weight = 0;
        skip.next = seg.base + canon;
        return skip;
      }
      weight = checked_mul(weight, orbit_size(seg.sym, counter));
    }
    canon_representatives_counter().add();
    canon_weight_counter().add(weight);

    const auto report_at = [&](const ConditionReport& report) -> sweep::Visit {
      sweep::Visit out;
      out.weight = weight;
      if (!report.satisfied) {
        candidates_[shard] = Violation{
            seg.spec, "behavior#" + std::to_string(counter), report};
        out.hit = true;
      }
      return out;
    };

    // Checkpoint walk: ordinals inside a shard share their leading base-4
    // digits, i.e. their round-0 assignment, so the post-round-0 state is
    // computed once per leading-digit block and forked for every round-1
    // assignment underneath it (docs/SEARCH.md, "Checkpoint engine").
    // The symmetry skip composes freely: it only changes *which* ordinals
    // of the block are visited, not how they replay.
    ShardState& st = shard_states_[shard];
    if (st.segment != &seg) {
      st.segment = &seg;
      st.adversary =
          std::make_unique<TableAdversary>(seg.spec.config.n, seg.slots);
      sim::RunOptions run_options;
      run_options.faulty = seg.spec.faulty;
      run_options.adversary = st.adversary.get();
      st.engine = std::make_unique<sim::RoundEngine>(
          core::make_byz_processes(seg.spec.config, seg.spec.sender,
                                   seg.spec.sender_value),
          run_options);
      st.engine->begin();
      st.start = st.engine->snapshot();
      st.has_round1 = false;
      checkpoints_counter().add();
    }
    sim::RoundEngine& engine = *st.engine;
    const std::size_t r0 = seg.round0_slots;
    const std::uint64_t round0_digits =
        r0 == 0 ? 0 : counter >> (2 * (slots - r0));
    if (!st.has_round1 || st.round0_digits != round0_digits) {
      // (Re)build the post-round-0 checkpoint for this leading-digit
      // block: round-0 slots only exist for a faulty sender, and a faulty
      // sender emits nothing in round 1, so the two digit ranges address
      // disjoint dispatches.
      engine.restore(st.start);
      apply_digits(counter, slots, 0, r0, alphabet,
                   [&](std::size_t i, Value v) {
                     st.adversary->set(seg.slots[i], v);
                   });
      engine.dispatch_pending();
      engine.process_round();
      st.round1 = engine.snapshot();
      st.round0_digits = round0_digits;
      st.has_round1 = true;
      checkpoints_counter().add();
      rounds_replayed_counter().add(1);
    } else {
      engine.restore(st.round1);
      forks_counter().add();
      rounds_skipped_counter().add(1);
    }
    apply_digits(counter, slots, r0, slots, alphabet,
                 [&](std::size_t i, Value v) {
                   st.adversary->set(seg.slots[i], v);
                 });
    engine.dispatch_pending();
    engine.process_round();
    rounds_replayed_counter().add(1);
    DA_EXPECTS(engine.done());
    byz_executions.add();
    engine.finish_into(st.result);
    byz_messages.add(st.result.messages_sent);
    return report_at(check_conditions(seg.spec, st.result.decisions));
  }

  std::vector<Segment> segments_;
  sweep::ShardPlan plan_;
  std::vector<std::optional<Violation>> candidates_;
  std::vector<ShardState> shard_states_;
};

}  // namespace

std::string behavior_search_unsupported(const Config& config, int max_f) {
  if (!config.valid() || config.m > 1) {
    return "config is not a depth-2 instance";
  }
  if (!config.engine_runnable()) {
    return "config needs n >= 2m+1 for the EIG engine";
  }
  const int limit = resolve_limit(config, max_f);
  if (limit > config.n) return "fault limit exceeds n";
  if (limit == 0) return {};
  // The widest segment's faulty subset holds the sender: its n-1 round-0
  // slots plus n-2 relay slots per other faulty node (controlled_slots).
  const auto n = static_cast<std::uint64_t>(config.n);
  const std::uint64_t widest =
      (n - 1) + static_cast<std::uint64_t>(limit - 1) * (n - 2);
  if (widest > SlotSymmetry::kMaxSlots) {
    return "a faulty subset controls " + std::to_string(widest) +
           " slots, past the cap of " +
           std::to_string(SlotSymmetry::kMaxSlots);
  }
  return {};
}

std::optional<Violation> exhaustive_behavior_search(
    const Config& config, const BehaviorSearchOptions& options,
    const sweep::SweepOptions& sweep_options, sweep::SweepStats* stats) {
  BehaviorSweep search(config, resolve_limit(config, options.max_f));
  const sweep::SweepResult result =
      sweep::run_sweep(search.plan(), sweep_options, search.visitor());
  if (stats != nullptr) *stats = result.stats;
  if (!result.first_hit_shard.has_value()) return std::nullopt;
  return search.candidate(*result.first_hit_shard);
}

std::optional<Violation> exhaustive_behavior_search(const Config& config,
                                                    int max_f) {
  return exhaustive_behavior_search(
      config, BehaviorSearchOptions{.max_f = max_f}, sweep::SweepOptions{});
}

std::uint64_t behavior_search_space(const Config& config, int max_f) {
  DA_EXPECTS(config.valid());
  std::uint64_t total = 0;
  for_each_segment(config, resolve_limit(config, max_f),
                   [&](const ScenarioSpec&, const auto& slots) {
                     total += pow_symbols(slots.size());
                   });
  return total;
}

std::uint64_t behavior_search_quotient_space(const Config& config,
                                             int max_f) {
  DA_EXPECTS(config.valid());
  std::uint64_t total = 0;
  for_each_segment(
      config, resolve_limit(config, max_f),
      [&](const ScenarioSpec& spec, const auto& slots) {
        if (is_subset_representative(config.n, spec.sender, spec.faulty)) {
          total += canonical_count(make_slot_symmetry(spec, slots));
        }
      });
  return total;
}

std::optional<Violation> behavior_at(const Config& config, int max_f,
                                     std::uint64_t ordinal) {
  // Deliberately independent of the walk: no quotient, no shard plan, no
  // fork engine — locate the segment by its size in the full enumeration
  // and run that one behaviour from scratch.
  DA_EXPECTS(behavior_search_unsupported(config, max_f).empty());
  ScenarioSpec spec;
  std::vector<std::pair<NodeId, NodeId>> slots;
  std::uint64_t counter = ordinal;
  bool found = false;
  for_each_segment(config, resolve_limit(config, max_f),
                   [&](const ScenarioSpec& s, const auto& segment_slots) {
                     if (found) return;
                     const std::uint64_t size =
                         pow_symbols(segment_slots.size());
                     if (counter >= size) {
                       counter -= size;
                       return;
                     }
                     spec = s;
                     slots = segment_slots;
                     found = true;
                   });
  DA_EXPECTS(found);  // ordinal < behavior_search_space(config, max_f)
  TableAdversary adversary(config.n, slots);
  apply_digits(counter, slots.size(), 0, slots.size(),
               alphabet_for(spec.sender_value),
               [&](std::size_t i, Value v) { adversary.set(slots[i], v); });
  const ConditionReport report =
      DegradableAgreement(config).run_and_check(spec, &adversary);
  if (report.satisfied) return std::nullopt;
  return Violation{spec, "behavior#" + std::to_string(counter), report};
}

Frontier init_behavior_frontier(const Config& config, int max_f,
                                std::uint64_t seed) {
  const int limit = resolve_limit(config, max_f);
  BehaviorSweep search(config, limit);
  Frontier frontier;
  frontier.config = config;
  frontier.max_f = limit;  // resolved, so the header is self-contained
  frontier.seed = seed;
  frontier.space = search.plan().total();
  frontier.classes = search.classes();
  frontier.shards.reserve(search.plan().shard_count());
  for (const sweep::ShardRange& range : search.plan().shards()) {
    frontier.shards.push_back({range.begin, range.end, range.begin});
  }
  return frontier;
}

FrontierRun run_behavior_frontier(Frontier& frontier,
                                  const FrontierRunOptions& options) {
  const obs::MetricsScope metrics_scope;  // flush driver-side counters
  FrontierRun run;
  const std::string unsupported =
      behavior_search_unsupported(frontier.config, frontier.max_f);
  if (!unsupported.empty()) {
    run.error = "frontier: " + unsupported;
    return run;
  }
  BehaviorSweep search(frontier.config,
                       resolve_limit(frontier.config, frontier.max_f));
  if (frontier.space != search.plan().total()) {
    run.error = "frontier space does not match the search space";
    return run;
  }
  if (frontier.classes != search.classes()) {
    run.error = "frontier classes do not match the search's class plan";
    return run;
  }

  // Every frontier shard must be a shard of the search's plan (a split
  // part holds a subset of them). The sweep then runs a plan of the
  // frontier's own shards, so sweep shard s is frontier shard s.
  const sweep::ShardPlan& full = search.plan();
  sweep::ShardPlan plan;
  std::size_t next = 0;
  for (const FrontierShard& shard : frontier.shards) {
    while (next < full.shard_count() && full.shard(next).begin < shard.begin) {
      ++next;
    }
    if (next >= full.shard_count() || full.shard(next).begin != shard.begin ||
        full.shard(next).end != shard.end) {
      run.error = "frontier shards do not match the search's shard plan";
      return run;
    }
    ++next;
    plan.skip(shard.begin - plan.total());
    plan.append_even(shard.end - shard.begin, shard.end - shard.begin);
    if (!shard.settled()) frontier_resumed_counter().add();
  }
  frontier_runs_counter().add();

  // The sweep reads its resume records while settled shards are written
  // back into the frontier; a copy keeps the two apart.
  const std::vector<sweep::ShardProgress> saved = frontier.shards;
  std::atomic<int> completed{0};
  std::mutex frontier_mutex;
  sweep::SweepOptions sweep_options;
  sweep_options.jobs = options.jobs;
  sweep_options.seed = frontier.seed;
  sweep_options.resume = &saved;
  if (options.max_shards >= 0) {
    sweep_options.stop = [&completed, max = options.max_shards] {
      return completed.load(std::memory_order_relaxed) >= max;
    };
  }
  sweep_options.on_shard_done = [&](std::size_t s,
                                    const sweep::ShardStats& stats) {
    completed.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(frontier_mutex);
    frontier.shards[s] = stats;
    frontier_checkpoints_counter().add();
    if (options.checkpoint) options.checkpoint(frontier);
  };

  const sweep::SweepResult result =
      sweep::run_sweep(plan, sweep_options, search.visitor());
  run.stats = result.stats;

  // Fold every shard back (suspended cursors included — the on_shard_done
  // hook only saw shards that settled this run).
  for (std::size_t s = 0; s < frontier.shards.size(); ++s) {
    frontier.shards[s] = result.stats.per_shard[s];
  }

  const std::uint64_t hit = frontier.best_hit();
  if (hit != sweep::kNoHit) {
    run.violation = behavior_at(frontier.config, frontier.max_f, hit);
    DA_ENSURES(run.violation.has_value());
  }
  if (frontier.settled()) {
    frontier.normalize();
    run.settled = true;
  }
  return run;
}

}  // namespace da::faults
