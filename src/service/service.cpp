#include "service/service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <utility>

#include "core/byz.hpp"
#include "faults/adversaries.hpp"
#include "inject/injection_network.hpp"
#include "obs/metrics.hpp"
#include "protocols/lamport/om.hpp"
#include "sweep/sweep.hpp"
#include "sweep/thread_pool.hpp"
#include "util/contracts.hpp"

namespace da::service {

namespace {

const obs::Counter& arrivals_counter() {
  static const obs::Counter c("service.arrivals");
  return c;
}
const obs::Counter& admitted_counter() {
  static const obs::Counter c("service.admitted");
  return c;
}
const obs::Counter& completed_counter() {
  static const obs::Counter c("service.completed");
  return c;
}
const obs::Counter& shed_counter() {
  static const obs::Counter c("service.shed");
  return c;
}
const obs::Counter& deadline_missed_counter() {
  static const obs::Counter c("service.deadline_missed");
  return c;
}
const obs::Counter& instances_counter() {
  static const obs::Counter c("service.instances_completed");
  return c;
}
const obs::Counter& slots_created_counter() {
  static const obs::Counter c("service.slots_created");
  return c;
}
const obs::Counter& slot_reuse_counter() {
  static const obs::Counter c("service.slot_reuse");
  return c;
}
const obs::Counter& ticks_counter() {
  static const obs::Counter c("service.ticks");
  return c;
}
const obs::Counter& rounds_driven_counter() {
  static const obs::Counter c("service.rounds_driven");
  return c;
}
constexpr std::size_t kViolableConditions = 4;  // D.1-D.4
// Verdict failures, counted at job completion: every violating job once in
// `service.violations`, and once per D.1-D.4 condition one of its
// sub-instances violated in `service.violations.d<k>`. Interned together
// (the service constructor touches them), so the exposition carries every
// line, zeros included.
const obs::Counter& violations_counter() {
  static const obs::Counter c("service.violations");
  return c;
}
const obs::Counter& condition_violations_counter(Condition cond) {
  static const obs::Counter c[kViolableConditions] = {
      obs::Counter("service.violations.d1"),
      obs::Counter("service.violations.d2"),
      obs::Counter("service.violations.d3"),
      obs::Counter("service.violations.d4")};
  return c[static_cast<std::size_t>(cond)];
}
// Per-class slices of the lifecycle counters ("service.<class>.*" in the
// catalogue, docs/OBSERVABILITY.md): one static handle per class, indexed
// by the enum.
const obs::Counter& class_completed_counter(AdmissionClass cls) {
  static const obs::Counter c[kAdmissionClassCount] = {
      obs::Counter("service.high.completed"),
      obs::Counter("service.normal.completed"),
      obs::Counter("service.low.completed")};
  return c[static_cast<std::size_t>(index_of(cls))];
}
const obs::Counter& class_shed_counter(AdmissionClass cls) {
  static const obs::Counter c[kAdmissionClassCount] = {
      obs::Counter("service.high.shed"), obs::Counter("service.normal.shed"),
      obs::Counter("service.low.shed")};
  return c[static_cast<std::size_t>(index_of(cls))];
}
const obs::Counter& class_deadline_counter(AdmissionClass cls) {
  static const obs::Counter c[kAdmissionClassCount] = {
      obs::Counter("service.high.deadline_missed"),
      obs::Counter("service.normal.deadline_missed"),
      obs::Counter("service.low.deadline_missed")};
  return c[static_cast<std::size_t>(index_of(cls))];
}
const obs::Quantile& decision_latency_quantile() {
  static const obs::Quantile q("service.decision_latency");
  return q;
}
const obs::Quantile& queue_wait_quantile() {
  static const obs::Quantile q("service.queue_wait");
  return q;
}
const obs::Quantile& class_latency_quantile(AdmissionClass cls) {
  static const obs::Quantile q[kAdmissionClassCount] = {
      obs::Quantile("service.high.decision_latency"),
      obs::Quantile("service.normal.decision_latency"),
      obs::Quantile("service.low.decision_latency")};
  return q[static_cast<std::size_t>(index_of(cls))];
}
const obs::Quantile& class_queue_wait_quantile(AdmissionClass cls) {
  static const obs::Quantile q[kAdmissionClassCount] = {
      obs::Quantile("service.high.queue_wait"),
      obs::Quantile("service.normal.queue_wait"),
      obs::Quantile("service.low.queue_wait")};
  return q[static_cast<std::size_t>(index_of(cls))];
}
const obs::Quantile& tick_ms_quantile() {
  static const obs::Quantile q("service.tick_ms");
  return q;
}

obs::SpanRef span_of(obs::SpanKind kind, std::uint64_t job, int sub = -1,
                     int round = -1) {
  return {kind, static_cast<std::int64_t>(job), sub, round};
}

/// The most tags any span can carry under `plan`: an injected inst span's
/// `rounds`, one `inj_*` tally per injection outcome the plan can produce
/// (`inj_examined` always), and one `rule<k>` per scripted rule.
std::size_t widest_span_tags(const inject::FaultPlan& plan) {
  const auto scripted = [&plan](inject::FaultKind kind) {
    return std::any_of(
        plan.rules.begin(), plan.rules.end(),
        [kind](const inject::LinkRule& rule) { return rule.kind == kind; });
  };
  const bool drops =
      scripted(inject::FaultKind::kDrop) || plan.rates.drop > 0.0;
  const bool dups =
      scripted(inject::FaultKind::kDuplicate) || plan.rates.duplicate > 0.0;
  const bool delays =
      scripted(inject::FaultKind::kDelay) || plan.rates.delay > 0.0;
  return 2 + static_cast<std::size_t>(drops) + static_cast<std::size_t>(dups) +
         static_cast<std::size_t>(delays) +
         static_cast<std::size_t>(!plan.crashes.empty()) + plan.rules.size();
}

/// Tags the span `log` recorded last with the nonzero injection tallies
/// (`base == nullptr`: totals; else the delta since `base`) as `inj_*` /
/// `rule<k>` tags — the correlation handles span_inspect uses to
/// attribute delay to a FaultPlan rule.
void add_injection_tags(obs::SpanLog& log, const inject::InjectionStats& cur,
                        const inject::InjectionStats* base) {
  const auto add = [&log](obs::SpanTagKey key, std::uint64_t c,
                          std::uint64_t b) {
    if (c > b) log.tag(key, static_cast<std::int64_t>(c - b));
  };
  add("inj_examined", cur.examined, base != nullptr ? base->examined : 0);
  add("inj_dropped", cur.dropped, base != nullptr ? base->dropped : 0);
  add("inj_duplicated", cur.duplicated,
      base != nullptr ? base->duplicated : 0);
  add("inj_delayed", cur.delayed, base != nullptr ? base->delayed : 0);
  add("inj_crash_dropped", cur.crash_dropped,
      base != nullptr ? base->crash_dropped : 0);
  for (std::size_t k = 0; k < cur.rule_hits.size(); ++k) {
    const std::uint64_t b =
        base != nullptr && k < base->rule_hits.size() ? base->rule_hits[k]
                                                      : 0;
    add(obs::SpanTagKey::rule(k), cur.rule_hits[k], b);
  }
}

constexpr double kNever = std::numeric_limits<double>::infinity();

std::uint64_t fold_value(std::uint64_t h, Value v) {
  return mix64(h, v.is_default() ? ~std::uint64_t{0}
                                 : static_cast<std::uint64_t>(v.raw()));
}

std::uint64_t fold_double(std::uint64_t h, double d) {
  return mix64(h, std::bit_cast<std::uint64_t>(d));
}

/// Severity order for folding an IC job's per-coordinate conditions into
/// one: report the strongest condition that *applied* (a faulty-sender
/// coordinate under D.2/D.4 outranks the fault-free ones).
int condition_rank(Condition c) {
  switch (c) {
    case Condition::kNone:
      return 0;
    case Condition::kD1:
      return 1;
    case Condition::kD3:
      return 2;
    case Condition::kD2:
      return 3;
    case Condition::kD4:
      return 4;
  }
  return 0;
}

}  // namespace

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kByz:
      return "byz";
    case JobKind::kIc:
      return "ic";
  }
  return "?";
}

const char* to_string(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kShedOldest:
      return "shed-oldest";
  }
  return "?";
}

std::string JobTemplate::to_string() const {
  char buf[112];
  std::snprintf(buf, sizeof buf, "%s n=%d m=%d u=%d sender=%d f=%zu class=%s",
                service::to_string(kind), config.n, config.m, config.u,
                static_cast<int>(sender), faulty.size(),
                service::to_string(admission));
  return buf;
}

std::vector<JobTemplate> default_mix() {
  std::vector<JobTemplate> mix;
  // Degraded-range BYZ (f = 2 > m = 1): exercises D.3.
  mix.push_back({JobKind::kByz, Config{.n = 7, .m = 1, .u = 4}, 0,
                 Value::of(17), {2, 3}, AdmissionClass::kNormal, 0.0});
  // Minimal feasible BYZ (f = 1 = m): exercises D.1; rides first class.
  mix.push_back({JobKind::kByz, Config{.n = 4, .m = 1, .u = 1}, 0,
                 Value::of(17), {1}, AdmissionClass::kHigh, 0.0});
  // Exact-range BYZ at m = 2 (3 rounds, the heavy shape): best effort.
  mix.push_back({JobKind::kByz, Config{.n = 7, .m = 2, .u = 2}, 0,
                 Value::of(17), {1, 2}, AdmissionClass::kLow, 0.0});
  // Interactive consistency: 4 parallel OM(1) coordinates per job.
  mix.push_back({JobKind::kIc, Config{.n = 4, .m = 1, .u = 1}, 0,
                 Value::of(17), {3}, AdmissionClass::kNormal, 0.0});
  return mix;
}

int draw_template_index(std::uint64_t seed, std::uint64_t id,
                        std::size_t mix_size) {
  return static_cast<int>(mix64(seed, mix64(id, 0x70)) % mix_size);
}

int draw_adversary_index(std::uint64_t seed, std::uint64_t id,
                         std::size_t adversary_count) {
  return static_cast<int>(mix64(seed, mix64(id, 0xad)) % adversary_count);
}

/// One recyclable scenario shape: everything needed to stamp out (or
/// rewind) an instance of a specific (protocol, config, sender, value,
/// faulty) combination. The `start` snapshot is taken at the round-0
/// pre-dispatch boundary, where no adversary decision has happened yet.
struct AgreementService::Shape {
  JobKind kind = JobKind::kByz;
  ScenarioSpec spec{};  // config/sender/value/faulty, for the checker
  sim::RunOptions options{};
  sim::RoundEngine::Snapshot start{};
  int rounds = 0;

  [[nodiscard]] std::vector<std::unique_ptr<sim::Process>> make() const {
    if (kind == JobKind::kByz) {
      return core::make_byz_processes(spec.config, spec.sender,
                                      spec.sender_value);
    }
    return protocols::lamport::make_om_processes(
        spec.config.n, spec.config.m, spec.sender, spec.sender_value);
  }
};

/// A pooled engine bound to one shape. Recycling = `restore(start)` +
/// `set_adversary`; the engine's buffers are assigned over, never
/// reallocated, so a warm pool admits instances without touching the
/// allocator.
struct AgreementService::InstanceSlot {
  int shape_index = 0;
  std::uint64_t job_id = 0;  // local job index (records_[job_id].id = global)
  int sub = 0;  // coordinate index within the job (0 for kByz)
  sim::RoundEngine engine;
  /// Per-slot fault transport, built with the slot when the fault plan is
  /// active and re-seeded per injected job. One worker advances one slot
  /// per tick, so its plain stats counters are race-free.
  std::unique_ptr<inject::InjectionNetwork> net;
  bool injected = false;
  // Span bookkeeping (meaningful only while record_spans is on).
  double admitted_at = 0.0;
  double last_time = 0.0;               // previous tick boundary
  inject::InjectionStats last_stats{};  // injection tallies at it

  InstanceSlot(int shape, const Shape& s)
      : shape_index(shape), engine(s.make(), s.options) {}
};

struct AgreementService::ActiveJob {
  int remaining_subs = 0;
  /// Bit c set: a sub-instance violated Condition c (one of D.1-D.4).
  unsigned violated = 0;
};

CountOutOfRange::CountOutOfRange(const std::string& name, std::uint64_t value,
                                 std::uint64_t max)
    : std::invalid_argument(name + " = " + std::to_string(value) +
                            " is above the limit of " + std::to_string(max)) {}

TooManySpanTags::TooManySpanTags(std::size_t tags)
    : std::invalid_argument(
          "the fault plan can put " + std::to_string(tags) +
          " tags on one span; a recorded span holds at most " +
          std::to_string(obs::SpanTags::kCapacity)),
      tags_(tags) {}

JobWiderThanCap::JobWiderThanCap(int width, int cap)
    : std::invalid_argument("cap " + std::to_string(cap) +
                            " is below the widest mix template (" +
                            std::to_string(width) +
                            " slots): such a job could never be admitted"),
      width_(width),
      cap_(cap) {}

AgreementService::AgreementService(ServiceConfig config)
    : config_(std::move(config)) {
  if (config_.offered > ServiceConfig::kMaxOffered) {
    throw CountOutOfRange("offered", config_.offered,
                          ServiceConfig::kMaxOffered);
  }
  DA_EXPECTS(config_.cap >= 1);
  DA_EXPECTS(config_.round_period > 0.0);
  DA_EXPECTS(config_.inject_every >= 1);
  DA_EXPECTS(config_.sample_every >= 0.0);
  inject_enabled_ = config_.fault_plan.active();
  if (config_.record_spans && inject_enabled_) {
    const std::size_t widest = widest_span_tags(config_.fault_plan);
    if (widest > obs::SpanTags::kCapacity) throw TooManySpanTags(widest);
  }
  (void)violations_counter();
  (void)condition_violations_counter(Condition::kD1);
  mix_ = config_.mix.empty() ? default_mix() : config_.mix;
  // The stateless adversary family instances draw from; all derive their
  // behaviour from message identity alone, so one object serves any
  // number of concurrent instances on any number of workers.
  adversaries_.push_back(faults::silent());
  adversaries_.push_back(faults::default_spammer());
  adversaries_.push_back(faults::constant_liar(Value::of(5)));
  adversaries_.push_back(faults::equivocator(Value::of(17), Value::of(5)));
  adversaries_.push_back(
      faults::pivot_equivocator(Value::of(17), Value::of(5), 3));
  adversaries_.push_back(faults::crash_after(0));
  build_shapes();
  config_.jobs = sweep::resolve_jobs(config_.jobs);
}

AgreementService::~AgreementService() = default;

void AgreementService::build_shapes() {
  template_shapes_.resize(mix_.size());
  for (std::size_t t = 0; t < mix_.size(); ++t) {
    const JobTemplate& tmpl = mix_[t];
    DA_EXPECTS(tmpl.config.valid());
    // The structured admission-boundary rejection: a well-formed config
    // the engine cannot execute (e.g. n=2, m=1) is refused here, not by
    // a contract failure rounds deep in EIG setup.
    if (!tmpl.config.engine_runnable()) throw UnsupportedConfig(tmpl.config);
    const int width =
        tmpl.kind == JobKind::kIc ? tmpl.config.n : 1;
    if (width > config_.cap) throw JobWiderThanCap(width, config_.cap);
    for (int sub = 0; sub < width; ++sub) {
      auto shape = std::make_unique<Shape>();
      shape->kind = tmpl.kind == JobKind::kByz ? JobKind::kByz : JobKind::kIc;
      shape->spec.config = tmpl.config;
      if (tmpl.kind == JobKind::kIc) {
        // Coordinate `sub`: node `sub` distributes its private value via
        // OM(m); u = m (OM makes no degraded promise).
        shape->spec.config.u = tmpl.config.m;
        shape->spec.sender = static_cast<NodeId>(sub);
        shape->spec.sender_value =
            Value::of(tmpl.sender_value.raw() + sub);
      } else {
        shape->spec.sender = tmpl.sender;
        shape->spec.sender_value = tmpl.sender_value;
      }
      shape->spec.faulty = tmpl.faulty;
      shape->options.faulty = tmpl.faulty;
      // A non-null placeholder satisfies the engine's faulty => adversary
      // contract; every admission installs the job's real adversary.
      shape->options.adversary =
          tmpl.faulty.empty() ? nullptr : adversaries_.front().get();
      // Template engine: collect round-0 sends once, snapshot the
      // pre-dispatch boundary. Every instance of this shape starts as a
      // restore of this snapshot.
      sim::RoundEngine tmpl_engine(shape->make(), shape->options);
      tmpl_engine.begin();
      shape->start = tmpl_engine.snapshot();
      shape->rounds = tmpl_engine.total_rounds();
      template_shapes_[t].push_back(static_cast<int>(shapes_.size()));
      shapes_.push_back(std::move(shape));
    }
  }
  free_slots_.resize(shapes_.size());
}

AgreementService::InstanceSlot* AgreementService::acquire_slot(
    int shape_index) {
  auto& free = free_slots_[static_cast<std::size_t>(shape_index)];
  if (!free.empty()) {
    InstanceSlot* slot = free.back();
    free.pop_back();
    ++slot_reuses_;
    slot_reuse_counter().add();
    return slot;
  }
  ++slots_created_;
  slots_created_counter().add();
  slots_.push_back(std::make_unique<InstanceSlot>(
      shape_index, *shapes_[static_cast<std::size_t>(shape_index)]));
  InstanceSlot* slot = slots_.back().get();
  if (inject_enabled_) {
    // Sized here, so that admissions reuse the network's and the span
    // bookkeeping's storage whichever slot a job lands in.
    slot->net = std::make_unique<inject::InjectionNetwork>(config_.fault_plan);
    slot->last_stats = slot->net->stats();
  }
  return slot;
}

void AgreementService::release_slot(InstanceSlot* slot) {
  free_slots_[static_cast<std::size_t>(slot->shape_index)].push_back(slot);
}

bool AgreementService::try_admit(std::uint64_t local, double now) {
  JobRecord& rec = records_[local];
  const auto& shape_ids =
      template_shapes_[static_cast<std::size_t>(rec.template_index)];
  const int width = static_cast<int>(shape_ids.size());
  if (active_width_ + width > config_.cap) return false;
  const bool inject = inject_enabled_ && job_injected(rec.id);
  for (int sub = 0; sub < width; ++sub) {
    const int shape_index = shape_ids[static_cast<std::size_t>(sub)];
    InstanceSlot* slot = acquire_slot(shape_index);
    const Shape& shape = *shapes_[static_cast<std::size_t>(shape_index)];
    slot->job_id = local;
    slot->sub = sub;
    slot->engine.restore(shape.start);
    slot->engine.set_adversary(
        shape.options.faulty.empty()
            ? nullptr
            : adversaries_[static_cast<std::size_t>(rec.adversary_index)]
                  .get());
    // Fault transport: selected jobs route every dispatch through a
    // per-slot injection network re-seeded per job (by *global* id, so
    // the fault pattern is invariant under front-end sharding). Sound
    // for the same reason set_adversary is — the restore boundary
    // precedes every dispatch of this instance.
    if (inject) {
      slot->net->reseed(mix64(config_.fault_plan.seed, mix64(rec.id, 0x1f)));
      slot->net->reset_stats();
      slot->engine.set_network(slot->net.get());
      slot->injected = true;
    } else if (slot->injected) {
      slot->engine.set_network(nullptr);
      slot->injected = false;
    }
    if (config_.record_spans) {
      slot->admitted_at = now;
      slot->last_time = now;
      // Read only while injected; a copy assignment keeps its storage.
      if (slot->injected) slot->last_stats = slot->net->stats();
    }
    active_.push_back(slot);
  }
  active_width_ += width;
  peak_active_ = std::max(peak_active_, active_width_);
  jobs_[local].remaining_subs = width;
  rec.admitted = now;
  admitted_counter().add();
  queue_wait_quantile().record(rec.queue_wait());
  class_queue_wait_quantile(rec.admission).record(rec.queue_wait());
  queue_sketch_.record(rec.queue_wait());
  if (config_.record_spans) {
    spans_.add(span_of(obs::SpanKind::kQueue, rec.id), rec.arrival, now);
    spans_.tag("width", width);
    spans_.tag("class", index_of(rec.admission));
  }
  return true;
}

void AgreementService::shed_job(std::uint64_t local, double at,
                                bool deadline_missed) {
  JobRecord& rec = records_[local];
  rec.shed = true;
  rec.deadline_missed = deadline_missed;
  rec.applied = Condition::kNone;
  rec.shed_at = at;
  ++finished_this_run_;
  ++shed_so_far_;
  shed_counter().add();
  class_shed_counter(rec.admission).add();
  if (deadline_missed) {
    ++deadline_missed_so_far_;
    deadline_missed_counter().add();
    class_deadline_counter(rec.admission).add();
  }
  if (config_.record_spans) {
    spans_.add(span_of(obs::SpanKind::kJob, rec.id), rec.arrival, at);
    spans_.tag("tmpl", rec.template_index);
    spans_.tag("adv", rec.adversary_index);
    spans_.tag("class", index_of(rec.admission));
    spans_.tag(deadline_missed ? obs::SpanTagKey("deadline")
                               : obs::SpanTagKey("shed"),
               1);
  }
}

void AgreementService::expire_deadlines(double now) {
  // Strictly-before semantics: a job whose deadline falls exactly on an
  // event instant may still be admitted at that instant.
  admission_.expire(now, [this](AdmissionClass, const QueuedJob& victim) {
    shed_job(victim.job, victim.deadline_at, /*deadline_missed=*/true);
  });
}

void AgreementService::drain_queue(double now) {
  // Class-major head-of-line: the oldest job of the highest occupied
  // class admits first, and a blocked head blocks everything behind it —
  // admission order is part of the determinism contract.
  while (!admission_.empty() && try_admit(admission_.front().job, now)) {
    admission_.pop_front();
  }
}

void AgreementService::complete_sub_instance(InstanceSlot& slot, double now) {
  const Shape& shape = *shapes_[static_cast<std::size_t>(slot.shape_index)];
  slot.engine.finish_into(scratch_result_);
  JobRecord& rec = records_[slot.job_id];
  check_conditions_into(shape.spec, scratch_result_.decisions,
                        scratch_report_);
  const ConditionReport& report = scratch_report_;
  if (condition_rank(report.applied) > condition_rank(rec.applied)) {
    rec.applied = report.applied;
  }
  rec.satisfied = rec.satisfied && report.satisfied;
  ActiveJob& job = jobs_[slot.job_id];
  if (!report.satisfied && report.applied != Condition::kNone) {
    job.violated |= 1u << static_cast<unsigned>(report.applied);
  }
  std::uint64_t h = rec.decisions_digest;
  for (const auto& [node, value] : scratch_result_.decisions) {
    h = mix64(h, static_cast<std::uint64_t>(node));
    h = fold_value(h, value);
  }
  rec.decisions_digest = h;
  instances_counter().add();
  if (config_.record_spans) {
    spans_.add(span_of(obs::SpanKind::kInst, rec.id, slot.sub),
               slot.admitted_at, now);
    spans_.tag("rounds", shape.rounds);
    if (slot.injected) add_injection_tags(spans_, slot.net->stats(), nullptr);
  }
  if (--job.remaining_subs == 0) {
    rec.completed = now;
    ++finished_this_run_;
    ++completed_so_far_;
    ++completed_by_class_[static_cast<std::size_t>(index_of(rec.admission))];
    // Counted and recorded at completion time (not in the end-of-run
    // fold) so mid-run registry snapshots, periodic samples and the
    // `service.completed` counter all agree at every instant.
    completed_counter().add();
    class_completed_counter(rec.admission).add();
    decision_latency_quantile().record(rec.latency());
    class_latency_quantile(rec.admission).record(rec.latency());
    latency_sketch_.record(rec.latency());
    class_latency_[static_cast<std::size_t>(index_of(rec.admission))].record(
        rec.latency());
    if (!rec.satisfied) {
      violations_counter().add();
      for (std::size_t c = 0; c < kViolableConditions; ++c) {
        if ((job.violated >> c & 1u) != 0) {
          condition_violations_counter(static_cast<Condition>(c)).add();
        }
      }
    }
    if (config_.record_spans) {
      spans_.add(span_of(obs::SpanKind::kJob, rec.id), rec.arrival, now);
      spans_.tag("tmpl", rec.template_index);
      spans_.tag("adv", rec.adversary_index);
      spans_.tag("class", index_of(rec.admission));
      spans_.add(span_of(obs::SpanKind::kDecide, rec.id), now, now);
      spans_.tag("ok", rec.satisfied ? 1 : 0);
      spans_.tag("cond", static_cast<std::int64_t>(rec.applied));
    }
  }
}

void AgreementService::tick(std::span<AgreementService* const> shards,
                            double now, sweep::ThreadPool* pool) {
  const obs::ScopedTimer timer(tick_ms_quantile());
  std::size_t total = 0;
  for (AgreementService* shard : shards) {
    ticks_counter().add();
    ++shard->ticks_this_run_;
    rounds_driven_counter().add(shard->active_.size());
    total += shard->active_.size();
  }
  // Batched round dispatch: every co-scheduled instance advances exactly
  // one synchronous round. Instances are disjoint process sets, so the
  // batch parallelizes freely as (shard, chunk) pieces of one fork-join
  // round, sized over all shards but never below kMinChunk instances (a
  // smaller piece costs more to hand off than it saves); the records stay
  // identical for any worker count because each slot's outcome is a pure
  // function of its own state. Each shard settles after all of its
  // chunks, on whichever thread finishes last, so the chunks are laid out
  // before the round: a settle compacts its shard's `active_` while other
  // shards' chunks still run. An idle shard gets no chunks and needs no
  // settle: its queue is empty too. A tick of one chunk runs inline.
  constexpr std::size_t kMinChunk = 16;
  struct Chunk {
    AgreementService* shard;
    std::size_t begin;
    std::size_t end;
  };
  static thread_local std::vector<Chunk> chunks;  // reused across ticks
  chunks.clear();
  if (pool != nullptr) {
    const std::size_t slots =
        static_cast<std::size_t>(pool->threads() + 1) * 4;
    const std::size_t per = std::max((total + slots - 1) / slots, kMinChunk);
    for (AgreementService* shard : shards) {
      const std::size_t size = shard->active_.size();
      shard->chunks_left_.store((size + per - 1) / per,
                                std::memory_order_relaxed);
      for (std::size_t begin = 0; begin < size; begin += per) {
        chunks.push_back({shard, begin, std::min(begin + per, size)});
      }
    }
  }
  if (chunks.size() <= 1) {
    for (AgreementService* shard : shards) {
      shard->advance(0, shard->active_.size());
      shard->settle(now);
    }
    return;
  }
  // The workers see this thread's list through `cut`, not through the
  // thread_local name, which would name their own.
  const std::span<const Chunk> cut(chunks);
  pool->fork_join(cut.size(), [cut, now](std::size_t c) {
    AgreementService* shard = cut[c].shard;
    shard->advance(cut[c].begin, cut[c].end);
    if (shard->chunks_left_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      shard->settle(now);
    }
  });
}

void AgreementService::advance(std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    active_[i]->engine.dispatch_pending();
    active_[i]->engine.process_round();
  }
}

void AgreementService::settle(double now) {
  // Sequential completion scan in active order (deterministic): fold
  // finished sub-instances into their job records and recycle the slots.
  std::size_t kept = 0;
  for (InstanceSlot* slot : active_) {
    if (config_.record_spans) {
      // The round this tick just processed, [previous boundary, now],
      // tagged with the injection deltas it incurred.
      spans_.add(span_of(obs::SpanKind::kRound, records_[slot->job_id].id,
                         slot->sub, slot->engine.rounds_processed() - 1),
                 slot->last_time, now);
      if (slot->injected) {
        const inject::InjectionStats& cur = slot->net->stats();
        add_injection_tags(spans_, cur, &slot->last_stats);
        slot->last_stats = cur;
      }
      slot->last_time = now;
    }
    if (!slot->engine.done()) {
      active_[kept++] = slot;
      continue;
    }
    complete_sub_instance(*slot, now);
    release_slot(slot);
    --active_width_;
    if (config_.record_spans) {
      spans_.add(span_of(obs::SpanKind::kRecycle, records_[slot->job_id].id,
                         slot->sub),
                 now, now);
    }
  }
  active_.resize(kept);
  // Completions freed capacity; expire stale deadlines, then admit the
  // queue head(s) at tick time.
  expire_deadlines(now);
  drain_queue(now);
}

void AgreementService::begin_run(std::uint64_t expected) {
  DA_EXPECTS(active_.empty());
  DA_EXPECTS(expected <= ServiceConfig::kMaxOffered);
  records_.clear();
  records_.reserve(expected);
  jobs_.clear();
  jobs_.reserve(expected);
  admission_.clear();
  spans_.clear();
  latency_sketch_.clear();
  queue_sketch_.clear();
  for (auto& sketch : class_latency_) sketch.clear();
  completed_so_far_ = 0;
  shed_so_far_ = 0;
  deadline_missed_so_far_ = 0;
  completed_by_class_.fill(0);
  finished_this_run_ = 0;  // completed + shed
  ticks_this_run_ = 0;
  peak_active_ = 0;
}

void AgreementService::offer_job(const JobOffer& offer, double now) {
  // Sweep expired deadlines first: an expired job must not block (or be
  // counted against) this arrival's admission.
  expire_deadlines(now);
  arrivals_counter().add();
  const std::uint64_t local = records_.size();
  records_.emplace_back();
  jobs_.emplace_back();
  JobRecord& rec = records_.back();
  rec.id = offer.id;
  rec.arrival = now;
  rec.template_index = offer.template_index;
  rec.adversary_index = offer.adversary_index;
  const JobTemplate& tmpl =
      mix_[static_cast<std::size_t>(rec.template_index)];
  rec.admission = tmpl.admission;
  // Class-aware admission: an arrival may overtake queued *lower*-class
  // jobs, but queues behind its own class (FIFO) and higher ones. With a
  // single class this is exactly the old "admit iff the queue is empty".
  if (!admission_.blocks(tmpl.admission) && try_admit(local, now)) {
    return;  // admitted on arrival
  }
  QueuedJob queued;
  queued.job = local;
  queued.deadline_at = tmpl.deadline > 0.0 ? now + tmpl.deadline : kNoDeadline;
  queued.width = static_cast<int>(
      template_shapes_[static_cast<std::size_t>(rec.template_index)].size());
  admission_.push(tmpl.admission, queued);
  if (config_.policy == OverloadPolicy::kShedOldest &&
      admission_.size() > config_.queue_cap) {
    const QueuedJob victim = admission_.pop_shed_victim();
    shed_job(victim.job, now, /*deadline_missed=*/false);
  }
}

void AgreementService::step(double now) {
  AgreementService* self = this;
  tick({&self, 1}, now, nullptr);
}

ServiceResult AgreementService::end_run(double makespan) {
  ServiceResult result = fold_run(makespan);
  if (config_.record_spans) {
    const obs::SpanLog* const log = &spans_;
    result.spans = obs::SpanSet::merge({&log, 1}, span_keys_);
  }
  return result;
}

ServiceResult AgreementService::fold_run(double makespan) {
  ServiceResult result;
  result.records = records_;
  result.completed = completed_so_far_;
  result.shed = shed_so_far_;
  result.deadline_missed = deadline_missed_so_far_;
  result.violations = 0;
  for (const JobRecord& rec : records_) {
    if (!rec.shed && !rec.satisfied) ++result.violations;
  }
  result.makespan = makespan;
  result.peak_active = peak_active_;
  result.ticks = ticks_this_run_;
  result.shards.push_back({records_.size(), result.completed, result.shed,
                           result.deadline_missed, peak_active_});
  result.latency_sketch = latency_sketch_;
  result.queue_sketch = queue_sketch_;
  result.class_latency = class_latency_;
  obs::MetricsRegistry::global().set_gauge("service.peak_active",
                                           result.peak_active);
  obs::MetricsRegistry::global().set_gauge("service.cap", config_.cap);
  return result;
}

ServiceResult AgreementService::run() {
  std::optional<sweep::ThreadPool> pool;
  if (config_.jobs > 1) pool.emplace(config_.jobs - 1);
  AgreementService* self = this;
  return detail::run({&self, 1}, config_,
                     pool.has_value() ? &*pool : nullptr, {});
}

bool AgreementService::job_injected(std::uint64_t job_id) const {
  return job_id % config_.inject_every == 0;
}

namespace detail {

ServiceResult run(std::span<AgreementService* const> shards,
                  const ServiceConfig& config, sweep::ThreadPool* pool,
                  const std::function<int(std::uint64_t)>& route) {
  const obs::MetricsScope metrics_scope;
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t offered = config.offered;
  DA_EXPECTS(offered >= 1);
  DA_EXPECTS(!shards.empty());
  for (AgreementService* shard : shards) {
    shard->begin_run(offered / shards.size() + 1);
  }
  const std::size_t mix_size = shards.front()->mix_.size();
  const std::size_t adversary_count = shards.front()->adversaries_.size();
  const auto finished = [shards] {
    std::uint64_t n = 0;
    for (const AgreementService* shard : shards) n += shard->finished_this_run_;
    return n;
  };
  const auto sample = [shards](double at) {
    ServiceSample point;
    point.time = at;
    obs::QuantileSketch latency;
    for (const AgreementService* shard : shards) {
      point.active += shard->active_width_;
      point.queued += shard->admission_.size();
      point.completed += shard->completed_so_far_;
      point.shed += shard->shed_so_far_;
      point.deadline_missed += shard->deadline_missed_so_far_;
      for (std::size_t c = 0; c < kAdmissionClassCount; ++c) {
        point.completed_by_class[c] += shard->completed_by_class_[c];
        point.queued_by_class[c] +=
            shard->admission_.size_of(static_cast<AdmissionClass>(c));
      }
      latency.merge(shard->latency_sketch_);
    }
    point.latency_p50 = latency.quantile(0.5);
    point.latency_p99 = latency.quantile(0.99);
    return point;
  };

  std::vector<ServiceSample> samples;
  std::vector<int> shard_of(offered, 0);
  std::uint64_t ticks = 0;
  std::vector<AgreementService*> busy;
  busy.reserve(shards.size());
  ArrivalGenerator gen(config.arrivals, config.seed);
  std::uint64_t arrived = 0;
  double next_arrival = gen.next();
  double next_tick = kNever;
  double next_sample = config.sample_every > 0.0 ? config.sample_every : kNever;
  double now = 0.0;
  while (finished() < offered) {
    // Unfinished jobs are queued or active, so an event is pending.
    const double next_event = std::min(next_arrival, next_tick);
    DA_EXPECTS(next_event != kNever);
    // Emit time-series points for grid instants strictly before the next
    // event: between events the state is constant, so each point reflects
    // the state as of its own instant.
    for (; next_sample < next_event; next_sample += config.sample_every) {
      samples.push_back(sample(next_sample));
    }
    if (arrived < offered && next_arrival <= next_tick) {
      // Arrival event (ties with a tick resolve arrival-first, so a job
      // arriving exactly at a tick boundary can join that tick's batch).
      now = next_arrival;
      const std::uint64_t id = arrived++;
      next_arrival = arrived < offered ? gen.next() : kNever;
      JobOffer offer;
      offer.id = id;
      offer.template_index = draw_template_index(config.seed, id, mix_size);
      offer.adversary_index =
          draw_adversary_index(config.seed, id, adversary_count);
      if (route) shard_of[id] = route(id);
      AgreementService& shard = *shards[static_cast<std::size_t>(shard_of[id])];
      shard.offer_job(offer, now);
      if (next_tick == kNever && !shard.idle()) {
        next_tick = now + config.round_period;
      }
      continue;
    }
    // Lockstep tick on the one global grid. Idle shards have empty queues
    // (a queued job implies an active one), so skipping them loses
    // nothing.
    now = next_tick;
    ++ticks;
    busy.clear();
    for (AgreementService* shard : shards) {
      if (!shard->idle()) busy.push_back(shard);
    }
    AgreementService::tick(busy, now, pool);
    next_tick = kNever;
    for (const AgreementService* shard : shards) {
      if (!shard->idle()) next_tick = now + config.round_period;
    }
  }
  // Close the time series at the makespan (the grid never reaches it:
  // points stop strictly before the final event).
  if (config.sample_every > 0.0) samples.push_back(sample(now));

  // Fold the shards back into one stream: the shards' span logs merge
  // into one canonical set, each record copied once; shard 0's result is
  // the base and the rest append to it (exact sketch merges, records
  // re-sorted by global id).
  std::vector<ServiceResult> parts;
  parts.reserve(shards.size());
  std::size_t records = 0;
  for (AgreementService* shard : shards) {
    parts.push_back(shard->fold_run(now));
    records += parts.back().records.size();
  }
  ServiceResult result = std::move(parts.front());
  if (config.record_spans) {
    std::vector<const obs::SpanLog*> logs;
    logs.reserve(shards.size());
    for (const AgreementService* shard : shards) logs.push_back(&shard->spans_);
    result.spans = obs::SpanSet::merge(logs, shards.front()->span_keys_);
  }
  result.records.reserve(records);
  for (std::size_t s = 1; s < parts.size(); ++s) {
    ServiceResult& part = parts[s];
    result.completed += part.completed;
    result.shed += part.shed;
    result.deadline_missed += part.deadline_missed;
    result.violations += part.violations;
    result.peak_active = std::max(result.peak_active, part.peak_active);
    result.latency_sketch.merge(part.latency_sketch);
    result.queue_sketch.merge(part.queue_sketch);
    for (std::size_t c = 0; c < kAdmissionClassCount; ++c) {
      result.class_latency[c].merge(part.class_latency[c]);
    }
    result.records.insert(result.records.end(), part.records.begin(),
                          part.records.end());
    result.shards.push_back(part.shards.front());
  }
  if (parts.size() > 1) {
    std::ranges::sort(result.records, {}, &JobRecord::id);
  }
  // Each end_run set the gauge to its own shard's peak; report the run's.
  obs::MetricsRegistry::global().set_gauge("service.peak_active",
                                           result.peak_active);
  result.shard_of = std::move(shard_of);
  result.samples = std::move(samples);
  result.ticks = ticks;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return result;
}

}  // namespace detail

double ServiceResult::latency_quantile(double q) const {
  std::vector<double> latencies;
  latencies.reserve(records.size());
  for (const JobRecord& rec : records) {
    if (!rec.shed && rec.completed >= 0.0) latencies.push_back(rec.latency());
  }
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  const std::size_t index = std::min(
      latencies.size() - 1,
      static_cast<std::size_t>(clamped *
                               static_cast<double>(latencies.size() - 1) +
                               0.5));
  return latencies[index];
}

std::uint64_t ServiceResult::digest() const {
  // Everything deterministic about the run, excluding wall_ms: every
  // record, and with several shards each job's placement too.
  std::uint64_t h = mix64(0x5e41ce, records.size());
  for (const JobRecord& rec : records) {
    h = mix64(h, rec.id);
    h = mix64(h, static_cast<std::uint64_t>(rec.template_index));
    h = mix64(h, static_cast<std::uint64_t>(rec.adversary_index));
    h = mix64(h, static_cast<std::uint64_t>(index_of(rec.admission)));
    h = fold_double(h, rec.arrival);
    h = mix64(h, rec.shed ? 1 : 0);
    if (rec.shed) {
      h = mix64(h, rec.deadline_missed ? 1 : 0);
      continue;
    }
    h = fold_double(h, rec.admitted);
    h = fold_double(h, rec.completed);
    h = mix64(h, static_cast<std::uint64_t>(rec.applied));
    h = mix64(h, rec.satisfied ? 1 : 0);
    h = mix64(h, rec.decisions_digest);
  }
  if (shards.size() > 1) {
    h = mix64(h, static_cast<std::uint64_t>(shards.size()));
    for (const int s : shard_of) h = mix64(h, static_cast<std::uint64_t>(s));
  }
  return h;
}

std::string ServiceResult::artifact() const {
  std::string out;
  out.reserve(records.size() * 112);
  char line[192];
  for (const JobRecord& rec : records) {
    if (rec.shed) {
      std::snprintf(line, sizeof line,
                    "job %llu tmpl=%d adv=%d class=%s arrival=%.6f %s\n",
                    static_cast<unsigned long long>(rec.id),
                    rec.template_index, rec.adversary_index,
                    to_string(rec.admission), rec.arrival,
                    rec.deadline_missed ? "DEADLINE" : "SHED");
    } else {
      std::snprintf(line, sizeof line,
                    "job %llu tmpl=%d adv=%d class=%s arrival=%.6f "
                    "admitted=%.6f completed=%.6f %s %s digest=%016llx\n",
                    static_cast<unsigned long long>(rec.id),
                    rec.template_index, rec.adversary_index,
                    to_string(rec.admission), rec.arrival, rec.admitted,
                    rec.completed, to_string(rec.applied),
                    rec.satisfied ? "ok" : "VIOLATED",
                    static_cast<unsigned long long>(rec.decisions_digest));
    }
    out += line;
  }
  return out;
}

ServiceResult run_service(const ServiceConfig& config) {
  AgreementService svc(config);
  return svc.run();
}

}  // namespace da::service
