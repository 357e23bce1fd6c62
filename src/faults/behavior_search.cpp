#include "faults/behavior_search.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
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
/// paths containing itself).
std::vector<std::pair<NodeId, NodeId>> controlled_slots(
    const ScenarioSpec& spec) {
  std::vector<std::pair<NodeId, NodeId>> slots;
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
  return slots;
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
  /// Conjugate subsets this segment stands for (1 when the subset
  /// quotient is off): every visit weight is multiplied by it.
  std::uint64_t class_size = 1;
  /// Leading slots that are the faulty sender's round-0 broadcast (0 when
  /// the sender is honest). Everything after is a round-1 relay slot.
  std::size_t round0_slots = 0;
};

/// Builds the representative segments. Bases always advance over *every*
/// subset — the global ordinal space stays the unreduced one — but with
/// `subset_symmetry` only one subset per conjugacy class materializes as
/// a Segment; the rest become gaps the shard plan skips. Representatives
/// are the lexicographically-first subsets of their class, which is also
/// the class member with the smallest base, so the quotiented walk's
/// first hit is the unquotiented walk's first hit (docs/SEARCH.md §6).
std::vector<Segment> build_segments(const Config& config, int limit,
                                    bool subset_symmetry) {
  std::vector<Segment> segments;
  std::uint64_t base = 0;
  for (int f = 1; f <= limit; ++f) {
    for_each_subset(config.n, f, [&](const std::vector<NodeId>& faulty) {
      ScenarioSpec spec;
      spec.config = config;
      spec.sender = 0;
      spec.sender_value = Value::of(7);
      spec.faulty = faulty;
      auto slots = controlled_slots(spec);
      DA_EXPECTS(slots.size() <= 12);  // 4^12 = 16M: keep runs bounded
      if (subset_symmetry &&
          !is_subset_representative(config.n, spec.sender, faulty)) {
        subset_skipped_counter().add();
        base += pow_symbols(slots.size());
        return;
      }
      Segment seg;
      seg.spec = std::move(spec);
      seg.slots = std::move(slots);
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
      if (subset_symmetry) {
        seg.class_size =
            subset_class_size(config.n, seg.spec.sender, seg.spec.faulty);
        subset_classes_counter().add();
        subset_members_counter().add(seg.class_size);
      }
      seg.base = base;
      base += pow_symbols(seg.slots.size());
      segments.push_back(std::move(seg));
    });
  }
  return segments;
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
class BehaviorSweep {
 public:
  BehaviorSweep(const Config& config, int limit, bool checkpointing,
                bool symmetry, bool subset_symmetry)
      : checkpointing_(checkpointing),
        symmetry_(symmetry),
        subset_symmetry_(subset_symmetry),
        protocol_(config),
        segments_(build_segments(config, limit, subset_symmetry)) {
    for (const Segment& seg : segments_) {
      // Skipped conjugate segments are gaps: the plan advances its
      // ordinal space over them without creating shards, so every
      // remaining shard keeps its unreduced global ordinals.
      if (seg.base > plan_.total()) plan_.skip(seg.base - plan_.total());
      plan_.append_pow4(seg.slots.size());
    }
    const std::uint64_t space = behavior_search_space(config, limit);
    if (space > plan_.total()) plan_.skip(space - plan_.total());
    candidates_.resize(plan_.shard_count());
    shard_states_.resize(checkpointing_ ? plan_.shard_count() : 0);
  }

  [[nodiscard]] const sweep::ShardPlan& plan() const { return plan_; }

  /// The conjugacy-class table in frontier form (empty when the subset
  /// quotient is off — the segments then tile the space contiguously and
  /// the frontier serializes as v1).
  [[nodiscard]] std::vector<FrontierClass> classes() const {
    std::vector<FrontierClass> out;
    if (!subset_symmetry_) return out;
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

  /// Scratch single-ordinal execution (no sweep, no checkpoint state).
  [[nodiscard]] std::optional<Violation> at(std::uint64_t ordinal) {
    const Segment& seg = segment_of(ordinal);
    const std::uint64_t counter = ordinal - seg.base;
    const std::size_t slots = seg.slots.size();
    const auto alphabet = alphabet_for(seg.spec.sender_value);
    TableAdversary adversary(seg.spec.config.n, seg.slots);
    apply_digits(counter, slots, 0, slots, alphabet,
                 [&](std::size_t i, Value v) {
                   adversary.set(seg.slots[i], v);
                 });
    const ConditionReport report =
        protocol_.run_and_check(seg.spec, &adversary);
    if (report.satisfied) return std::nullopt;
    return Violation{seg.spec, "behavior#" + std::to_string(counter), report};
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

    // Weight starts at the subset-conjugacy class size (1 unquotiented)
    // and picks up the receiver-orbit size below; the product is what a
    // clean sweep reconciles against the full unreduced space.
    std::uint64_t weight = seg.class_size;
    if (symmetry_) {
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
    }

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

    if (!checkpointing_) {
      // Scratch path: one full execution, adversary rebuilt per ordinal.
      TableAdversary adversary(seg.spec.config.n, seg.slots);
      apply_digits(counter, slots, 0, slots, alphabet,
                   [&](std::size_t i, Value v) {
                     adversary.set(seg.slots[i], v);
                   });
      return report_at(protocol_.run_and_check(seg.spec, &adversary));
    }

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

  bool checkpointing_;
  bool symmetry_;
  bool subset_symmetry_;
  DegradableAgreement protocol_;
  std::vector<Segment> segments_;
  sweep::ShardPlan plan_;
  std::vector<std::optional<Violation>> candidates_;
  std::vector<ShardState> shard_states_;
};

int resolve_limit(const Config& config, int max_f) {
  return max_f < 0 ? config.u : max_f;
}

}  // namespace

std::optional<Violation> exhaustive_behavior_search(
    const Config& config, const BehaviorSearchOptions& options,
    const sweep::SweepOptions& sweep_options, sweep::SweepStats* stats) {
  DA_EXPECTS(config.valid());
  DA_EXPECTS(config.m <= 1);  // depth-2 instances only
  BehaviorSweep search(config, resolve_limit(config, options.max_f),
                       options.checkpointing, options.symmetry,
                       options.subset_symmetry);
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
  const int limit = resolve_limit(config, max_f);
  std::uint64_t total = 0;
  for (int f = 1; f <= limit; ++f) {
    for_each_subset(config.n, f, [&](const std::vector<NodeId>& faulty) {
      ScenarioSpec spec;
      spec.config = config;
      spec.sender = 0;
      spec.faulty = faulty;
      total += pow_symbols(controlled_slots(spec).size());
    });
  }
  return total;
}

std::uint64_t behavior_search_canonical_space(const Config& config,
                                              int max_f) {
  DA_EXPECTS(config.valid());
  const int limit = resolve_limit(config, max_f);
  std::uint64_t total = 0;
  for (int f = 1; f <= limit; ++f) {
    for_each_subset(config.n, f, [&](const std::vector<NodeId>& faulty) {
      ScenarioSpec spec;
      spec.config = config;
      spec.sender = 0;
      spec.faulty = faulty;
      const auto slots = controlled_slots(spec);
      total += canonical_count(make_slot_symmetry(spec, slots));
    });
  }
  return total;
}

std::uint64_t behavior_search_quotient_space(const Config& config,
                                             int max_f) {
  DA_EXPECTS(config.valid());
  const int limit = resolve_limit(config, max_f);
  std::uint64_t total = 0;
  for (int f = 1; f <= limit; ++f) {
    for_each_subset(config.n, f, [&](const std::vector<NodeId>& faulty) {
      ScenarioSpec spec;
      spec.config = config;
      spec.sender = 0;
      spec.faulty = faulty;
      if (!is_subset_representative(config.n, spec.sender, faulty)) return;
      const auto slots = controlled_slots(spec);
      total += canonical_count(make_slot_symmetry(spec, slots));
    });
  }
  return total;
}

std::optional<Violation> behavior_at(const Config& config, int max_f,
                                     std::uint64_t ordinal) {
  DA_EXPECTS(config.valid());
  DA_EXPECTS(config.m <= 1);
  const int limit = resolve_limit(config, max_f);
  DA_EXPECTS(ordinal < behavior_search_space(config, limit));
  // Unquotiented on purpose: any full-space ordinal must resolve, not
  // just ordinals inside representative segments.
  BehaviorSweep search(config, limit, /*checkpointing=*/false,
                       /*symmetry=*/false, /*subset_symmetry=*/false);
  return search.at(ordinal);
}

Frontier init_behavior_frontier(const Config& config, int max_f,
                                std::uint64_t seed, bool subset_symmetry) {
  DA_EXPECTS(config.valid());
  DA_EXPECTS(config.m <= 1);
  const int limit = resolve_limit(config, max_f);
  BehaviorSweep search(config, limit, /*checkpointing=*/false,
                       /*symmetry=*/false, subset_symmetry);
  Frontier frontier;
  frontier.config = config;
  frontier.max_f = limit;  // resolved, so the header is self-contained
  frontier.seed = seed;
  frontier.space = behavior_search_space(config, limit);
  frontier.classes = search.classes();
  frontier.shards.reserve(search.plan().shard_count());
  for (std::size_t s = 0; s < search.plan().shard_count(); ++s) {
    const sweep::ShardRange range = search.plan().shard(s);
    FrontierShard shard;
    shard.begin = range.begin;
    shard.end = range.end;
    shard.cursor = range.begin;
    frontier.shards.push_back(shard);
  }
  return frontier;
}

FrontierRun run_behavior_frontier(Frontier& frontier,
                                  const FrontierRunOptions& options) {
  const obs::MetricsScope metrics_scope;  // flush driver-side counters
  FrontierRun run;
  if (!frontier.config.valid() || frontier.config.m > 1) {
    run.error = "frontier config is not a depth-2 instance";
    return run;
  }
  const int limit = resolve_limit(frontier.config, frontier.max_f);
  if (frontier.space != behavior_search_space(frontier.config, limit)) {
    run.error = "frontier space does not match the search space";
    return run;
  }
  // The subset quotient is baked into the frontier: class records mean a
  // quotiented plan; their absence (a v1 file) means the full plan.
  const bool subset_symmetry = !frontier.classes.empty();
  BehaviorSweep search(frontier.config, limit, options.checkpointing,
                       options.symmetry, subset_symmetry);
  if (subset_symmetry) {
    const std::vector<FrontierClass> expected = search.classes();
    bool match = frontier.classes.size() == expected.size();
    for (std::size_t i = 0; match && i < expected.size(); ++i) {
      match = frontier.classes[i].base == expected[i].base &&
              frontier.classes[i].size == expected[i].size &&
              frontier.classes[i].weight == expected[i].weight;
    }
    if (!match) {
      run.error = "frontier classes do not match the search's class plan";
      return run;
    }
  }
  const sweep::ShardPlan& plan = search.plan();

  // Map frontier shards onto plan shards (the frontier may be a split
  // part holding a subset). Foreign shards resume as settled-with-zero
  // so the sweep never scans them; they are not folded back.
  constexpr std::size_t kForeign = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> frontier_of(plan.shard_count(), kForeign);
  sweep::SweepResume resume;
  resume.shards.resize(plan.shard_count());
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const sweep::ShardRange range = plan.shard(s);
    resume.shards[s].begin = range.begin;
    resume.shards[s].end = range.end;
    resume.shards[s].cursor = range.end;  // foreign default: skip
  }
  {
    std::size_t s = 0;
    for (std::size_t i = 0; i < frontier.shards.size(); ++i) {
      const FrontierShard& shard = frontier.shards[i];
      while (s < plan.shard_count() && plan.shard(s).begin < shard.begin) {
        ++s;
      }
      if (s >= plan.shard_count() || plan.shard(s).begin != shard.begin ||
          plan.shard(s).end != shard.end) {
        run.error = "frontier shards do not match the search's shard plan";
        return run;
      }
      frontier_of[s] = i;
      resume.shards[s].cursor = shard.cursor;
      resume.shards[s].executions = shard.executions;
      resume.shards[s].weighted = shard.weighted;
      resume.shards[s].first_hit = shard.hit;
      if (!shard.settled()) frontier_resumed_counter().add();
    }
  }
  frontier_runs_counter().add();

  std::atomic<int> completed{0};
  std::mutex frontier_mutex;
  sweep::SweepOptions sweep_options;
  sweep_options.jobs = options.jobs;
  sweep_options.seed = frontier.seed;
  sweep_options.resume = &resume;
  if (options.max_shards >= 0) {
    sweep_options.stop = [&completed, max = options.max_shards] {
      return completed.load(std::memory_order_relaxed) >= max;
    };
  }
  sweep_options.on_shard_done = [&](std::size_t s,
                                    const sweep::ShardStats& stats) {
    completed.fetch_add(1, std::memory_order_relaxed);
    const std::size_t i = frontier_of[s];
    if (i == kForeign) return;
    const std::lock_guard<std::mutex> lock(frontier_mutex);
    frontier.shards[i].cursor = stats.cursor;
    frontier.shards[i].executions = stats.executions;
    frontier.shards[i].weighted = stats.weighted;
    frontier.shards[i].hit = stats.first_hit;
    frontier_checkpoints_counter().add();
    if (options.checkpoint) options.checkpoint(frontier);
  };

  const sweep::SweepResult result =
      sweep::run_sweep(plan, sweep_options, search.visitor());
  run.stats = result.stats;

  // Fold every owned shard back (suspended cursors included — the
  // on_shard_done hook only saw shards that settled this run).
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const std::size_t i = frontier_of[s];
    if (i == kForeign) continue;
    const sweep::ShardStats& stats = result.stats.per_shard[s];
    frontier.shards[i].cursor = stats.cursor;
    frontier.shards[i].executions = stats.executions;
    frontier.shards[i].weighted = stats.weighted;
    frontier.shards[i].hit = stats.first_hit;
  }

  const std::uint64_t hit = frontier.best_hit();
  if (hit != sweep::kNoHit) {
    run.violation = search.at(hit);
    DA_ENSURES(run.violation.has_value());
  }
  if (frontier.settled()) {
    frontier.normalize();
    run.settled = true;
  }
  return run;
}

}  // namespace da::faults
