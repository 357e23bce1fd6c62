#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/scenario.hpp"
#include "inject/fault_plan.hpp"
#include "obs/quantiles.hpp"
#include "obs/spans.hpp"
#include "service/admission.hpp"
#include "service/arrivals.hpp"
#include "sim/adversary.hpp"
#include "sim/round_engine.hpp"

namespace da::sweep {
class ThreadPool;
}  // namespace da::sweep

namespace da::service {

/// Agreement as a service: a long-lived loop driving thousands of
/// concurrent BYZ/IC instances off one global virtual-time event queue,
/// built on `sim::RoundEngine` snapshots (docs/SERVICE.md).
///
/// The paper's protocols are exercised elsewhere one instance per `run()`
/// call; here a stream of agreement *jobs* arrives open-loop (Poisson,
/// bursty, heavy-tailed — `service/arrivals.hpp`), is admitted against a
/// concurrency cap with class-aware backpressure (`service/admission.hpp`:
/// priority classes, optional admission deadlines, shed-lowest-class-first
/// overload handling), and is executed in *batched round ticks*: every
/// `round_period` of virtual time, all co-scheduled instances advance one
/// synchronous round together, drained in instance chunks by the sweep
/// engine's fork-join pool when `jobs > 1`.
///
/// Steady-state admission is allocation-free: per distinct scenario
/// *shape* (protocol, config, sender, value, faulty set) the service
/// keeps a template `RoundEngine::Snapshot` taken at the round-0
/// pre-dispatch boundary, and a pool of recycled `InstanceSlot`s whose
/// engines are rewound with `restore()` (which assigns over existing
/// buffers) instead of rebuilt. Because that boundary precedes every
/// adversary decision, `set_adversary()` per admission is sound — the
/// same argument the checkpointed searches rely on (docs/SEARCH.md §4).
///
/// Determinism contract: for a fixed (seed, arrival spec, cap, policy,
/// mix), the per-job records — arrival/admission/completion times,
/// verdicts, decision digests, shed dispositions — are identical for
/// every `jobs` value. Arrivals and admissions happen on the event-loop
/// thread only; workers touch disjoint engines; all adversary behaviour
/// is a pure function of message identity. `ServiceResult::digest()`
/// folds every record so tests can pin the contract in one comparison.
///
/// Besides the self-driving `run()`, the service exposes a *driven mode*
/// (`begin_run` / `offer_job` / `step` / `end_run`). `run()` itself is
/// the shared run-and-merge path `detail::run` with this service as its
/// only shard; the sharded front-end (`service/frontend.hpp`) runs the
/// same path over N shards and gets the same `ServiceResult` back, which
/// is what makes an uncongested front-end stream record-identical to the
/// single-service baseline and a one-shard front-end the plain service.

/// What kind of agreement one arriving job asks for.
enum class JobKind {
  /// One BYZ(m,m) instance: `config`, `sender`, `sender_value`.
  kByz,
  /// One interactive-consistency job: `config.n` parallel OM(m)
  /// instances, one per sender (node i's private value is
  /// `sender_value + i`); the job completes when the last coordinate
  /// decides. Occupies `config.n` slots while active.
  kIc,
};

[[nodiscard]] const char* to_string(JobKind kind);

/// One entry of the service's scenario mix. Each arriving job draws a
/// template (and an adversary from the service's stateless family) by a
/// pure function of (seed, job id).
struct JobTemplate {
  JobKind kind = JobKind::kByz;
  Config config{};
  NodeId sender = 0;
  Value sender_value = Value::of(17);
  std::vector<NodeId> faulty{};
  /// Priority class: admission order is (class, FIFO within class), and
  /// overload shedding consumes the lowest class first.
  AdmissionClass admission = AdmissionClass::kNormal;
  /// Relative admission deadline in virtual time: a job still queued
  /// when `arrival + deadline` passes is shed with the distinct
  /// `deadline_missed` disposition. <= 0 means no deadline.
  double deadline = 0.0;

  [[nodiscard]] std::string to_string() const;
};

/// The standard mix used by benches and the demo: three BYZ shapes
/// (n=7 1/4-degradable, n=4 1/1, n=7 2/2) and one n=4 IC job, faults
/// within budget so D.1-D.4 all hold and the stream stays clean. The
/// minimal-feasible BYZ shape rides in `kHigh`, the heavy 3-round shape
/// in `kLow`, the rest in `kNormal`; no template carries a deadline.
[[nodiscard]] std::vector<JobTemplate> default_mix();

/// What to do when arrivals outpace the cap.
enum class OverloadPolicy {
  /// Queue without bound; every job is eventually admitted in (class,
  /// FIFO) order. Latency absorbs the backlog.
  kBlock,
  /// Bound the admission queue at `queue_cap` jobs; when a new arrival
  /// would exceed it, the oldest job of the *lowest occupied class* is
  /// shed (dropped, counted, recorded with `shed = true`). High classes
  /// ride out bursts at the expense of low ones; with a single class
  /// this degenerates to the classic shed-oldest.
  kShedOldest,
};

[[nodiscard]] const char* to_string(OverloadPolicy policy);

struct ServiceConfig {
  ArrivalSpec arrivals = ArrivalSpec::poisson(8.0);
  /// Jobs the arrival process offers per `run()`.
  std::uint64_t offered = 1000;
  /// Concurrency cap, in slots (an IC job holds `n` slots at once).
  int cap = 256;
  /// Queue bound for kShedOldest, in jobs.
  std::size_t queue_cap = 1024;
  OverloadPolicy policy = OverloadPolicy::kShedOldest;
  /// Virtual time between round ticks (every active instance advances
  /// one synchronous round per tick).
  double round_period = 1.0;
  std::uint64_t seed = 1;
  /// Threads stepping each round batch (instance chunks, across every
  /// shard of a front-end): a pool of `jobs - 1` workers plus the calling
  /// thread; <= 1 steps inline, 0 means one per hardware thread.
  int jobs = 1;
  /// Scenario mix; `default_mix()` when empty.
  std::vector<JobTemplate> mix{};
  /// Record causal lifecycle spans (job/queue/inst/round/decide/recycle,
  /// obs/spans.hpp) into `ServiceResult::spans`. Ignored when the build's
  /// metrics kill switch (DA_METRICS=OFF) is on.
  bool record_spans = false;
  /// Emit a `ServiceSample` every this much virtual time (0 = off).
  double sample_every = 0.0;
  /// Fault plan routed through selected jobs' message transport via a
  /// per-slot `inject::InjectionNetwork` (inactive plan = reliable links).
  inject::FaultPlan fault_plan{};
  /// Every k-th job (id % k == 0) runs under `fault_plan`; 1 = every job.
  std::uint64_t inject_every = 1;
};

/// Outcome of one job, in virtual time. `admitted`/`completed` are
/// negative while not (yet) reached; a shed job never gets either.
struct JobRecord {
  std::uint64_t id = 0;
  int template_index = 0;
  int adversary_index = 0;
  AdmissionClass admission = AdmissionClass::kNormal;
  double arrival = 0.0;
  double admitted = -1.0;
  double completed = -1.0;
  bool shed = false;
  /// Shed because the admission deadline passed while queued (a subset
  /// of `shed`), as opposed to an overload-policy eviction.
  bool deadline_missed = false;
  /// Folded over all coordinates for kIc (worst coordinate wins:
  /// satisfied only if every coordinate satisfied).
  Condition applied = Condition::kNone;
  bool satisfied = true;
  /// mix64 fold of every (node, decision) pair, all coordinates.
  std::uint64_t decisions_digest = 0;
  /// Virtual time the job was shed (-1 when not shed; the deadline
  /// instant for deadline misses). Redundant with the event sequence, so
  /// excluded from `digest()`/`artifact()`; it closes the shed job's
  /// span.
  double shed_at = -1.0;

  [[nodiscard]] double queue_wait() const {
    return admitted < 0.0 ? 0.0 : admitted - arrival;
  }
  [[nodiscard]] double latency() const {
    return completed < 0.0 ? 0.0 : completed - arrival;
  }
};

/// One periodic time-series point, taken on the `sample_every` grid of
/// virtual time by the event loop — every field derives from deterministic
/// event-loop state, so the series is identical for every `jobs` value.
/// Under a front-end the fields are sums over shards and the latency
/// quantiles come from the exact merge of the shards' running sketches.
struct ServiceSample {
  double time = 0.0;
  int active = 0;          // occupied slots at this instant
  std::size_t queued = 0;  // jobs waiting for admission
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  /// Deadline-missed sheds so far (subset of `shed`).
  std::uint64_t deadline_missed = 0;
  /// Per-class breakdowns, indexed by `index_of(AdmissionClass)`.
  std::array<std::uint64_t, kAdmissionClassCount> completed_by_class{};
  std::array<std::uint64_t, kAdmissionClassCount> queued_by_class{};
  /// Running decision-latency quantiles (sketch estimates; 0 until the
  /// first completion).
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
};

/// One shard's slice of a run (the plain service is one shard).
struct ShardSummary {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_missed = 0;
  int peak_active = 0;
};

/// Aggregate of one run: of the plain service, or of a sharded front-end
/// with its shards exact-merged back into one stream.
struct ServiceResult {
  std::vector<JobRecord> records;  // by job id, one per offered job
  /// The routing decision, by global job id (empty from `end_run`).
  std::vector<int> shard_of;
  std::vector<ShardSummary> shards;  // one per shard, in shard order
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;  // all sheds, deadline misses included
  std::uint64_t deadline_missed = 0;
  std::uint64_t violations = 0;  // jobs whose D.1-D.4 verdict failed
  /// Virtual completion time of the last job.
  double makespan = 0.0;
  /// Wall-clock time the run took (the only nondeterministic field).
  double wall_ms = 0.0;
  /// Highest number of simultaneously active slots observed in any one
  /// shard (the largest shard peak; with one shard, the service's own).
  int peak_active = 0;
  /// Tick-grid instants driven (each may tick several shards).
  std::uint64_t ticks = 0;
  /// Causal spans (when `record_spans`); empty otherwise and under
  /// DA_METRICS=OFF. Canonical order from `run()`; emission order from
  /// `end_run`, which leaves the one canonical merge to its caller
  /// (`spans_to_jsonl` exports canonically either way).
  std::vector<obs::Span> spans;
  /// Periodic time series (when `sample_every > 0`).
  std::vector<ServiceSample> samples;
  /// Streaming sketches over completed jobs — decision latency and queue
  /// wait in virtual time. Always recorded (independent of the registry
  /// kill switch); exact-merge determinism makes their `serialize()` form
  /// byte-identical across `jobs` values.
  obs::QuantileSketch latency_sketch{};
  obs::QuantileSketch queue_sketch{};
  /// Per-class decision-latency sketches, indexed by
  /// `index_of(AdmissionClass)`; same determinism guarantee.
  std::array<obs::QuantileSketch, kAdmissionClassCount> class_latency{};

  /// Exact latency quantile over completed jobs (q in [0,1]); 0 when
  /// nothing completed.
  [[nodiscard]] double latency_quantile(double q) const;
  /// Completed jobs per unit of virtual time.
  [[nodiscard]] double throughput() const {
    return makespan <= 0.0 ? 0.0
                           : static_cast<double>(completed) / makespan;
  }
  /// Jobs-invariant fold of every record; the determinism pin. With more
  /// than one shard it then also folds the shard count and each job's
  /// shard, so a one-shard front-end has the plain service's digest.
  [[nodiscard]] std::uint64_t digest() const;
  /// Canonical one-line-per-job text artifact (byte-identical across
  /// `jobs` values for a fixed config; no shard column, so a sharded
  /// stream compares byte for byte with the plain service's).
  [[nodiscard]] std::string artifact() const;
};

/// Template / adversary draws for job `id`: pure functions of (seed, id),
/// made by the shared event loop so a plain service and the sharded
/// front-end see the same job stream for the same seed.
[[nodiscard]] int draw_template_index(std::uint64_t seed, std::uint64_t id,
                                      std::size_t mix_size);
[[nodiscard]] int draw_adversary_index(std::uint64_t seed, std::uint64_t id,
                                       std::size_t adversary_count);

/// One pre-drawn arriving job handed to a driven service: the caller
/// (the shared event loop or a test) owns the arrival stream and the
/// draws; the service owns admission, execution and records.
struct JobOffer {
  std::uint64_t id = 0;  // global job id (record identity, span ids)
  int template_index = 0;
  int adversary_index = 0;
};

class AgreementService;

namespace detail {

/// The one run-and-merge path behind both `AgreementService::run()` (one
/// shard) and `ServiceFrontend::run()`: the arrival -> route -> tick ->
/// sample loop (docs/SERVICE.md §"The event loop") over N >= 1 shards,
/// then `end_run` on every shard and the exact merge into one result.
/// `config` supplies the global arrival stream, seed, offered count,
/// tick period and sample grid. `route(id)` picks the shard for job `id`
/// (empty = shard 0); it runs on the calling thread between ticks, so it
/// may read shard loads. Each tick advances every non-idle shard's
/// instances on `pool` as one fork-join round of (shard, instance-chunk)
/// chunks, inline when `pool` is null.
[[nodiscard]] ServiceResult run(std::span<AgreementService* const> shards,
                                const ServiceConfig& config,
                                sweep::ThreadPool* pool,
                                const std::function<int(std::uint64_t)>& route);

}  // namespace detail

/// Structured rejection for a mix template wider than `ServiceConfig::cap`:
/// an IC job holds `n` slots at once, so with fewer it could never be
/// admitted. Thrown on construction, like `UnsupportedConfig`, so a CLI
/// can report a usage error instead of failing a contract.
class JobWiderThanCap : public std::invalid_argument {
 public:
  JobWiderThanCap(int width, int cap);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int cap() const { return cap_; }

 private:
  int width_;
  int cap_;
};

/// Thrown on construction when `record_spans` is set under a FaultPlan
/// whose injection tags could overflow one span
/// (`obs::SpanTags::kCapacity`): the recorder never truncates a span's
/// tags.
class TooManySpanTags : public std::invalid_argument {
 public:
  explicit TooManySpanTags(std::size_t tags);

  [[nodiscard]] std::size_t tags() const { return tags_; }

 private:
  std::size_t tags_;
};

/// The long-lived service. Construct once; `run()` may be called
/// repeatedly — slots, engines and queues persist across runs, so every
/// run after the first starts warm (no slot construction at all when the
/// mix is unchanged).
class AgreementService {
 public:
  /// Throws `UnsupportedConfig` when a mix template's config is outside
  /// what the engine can execute (`Config::engine_runnable()`),
  /// `JobWiderThanCap` when a template needs more slots than `cap`, and
  /// `TooManySpanTags` when recorded spans could not hold the fault
  /// plan's tags.
  explicit AgreementService(ServiceConfig config);
  ~AgreementService();

  AgreementService(const AgreementService&) = delete;
  AgreementService& operator=(const AgreementService&) = delete;

  /// Offers `config().offered` jobs through the arrival model and drives
  /// the event loop (`detail::run`, this service as its only shard, on a
  /// pool of `config().jobs - 1` workers plus the calling thread) until
  /// every job is completed or shed. Virtual time restarts at 0 each run;
  /// the arrival stream is re-seeded identically, so repeated runs of an
  /// unchanged service are identical.
  [[nodiscard]] ServiceResult run();

  // --- Driven mode -------------------------------------------------
  // A caller (a benchmark or a test) drives the service through the
  // primitives the event loop is built on: `begin_run` resets per-run
  // state, `offer_job` performs full arrival semantics (deadline sweep,
  // class-aware admit-or-queue, overload shedding), `step` is one
  // batched round tick plus deadline sweep plus queue drain on the
  // calling thread, and `end_run` folds the aggregates (moving the spans
  // out in emission order). All four must be called from one thread (the
  // caller's event loop).

  /// `expected` pre-sizes the record store (0 is fine).
  void begin_run(std::uint64_t expected);
  void offer_job(const JobOffer& offer, double now);
  void step(double now);
  [[nodiscard]] ServiceResult end_run(double makespan);

  /// True when no instance is active. Invariant: a non-empty admission
  /// queue implies an active instance, so an idle service has nothing
  /// to do until the next offer.
  [[nodiscard]] bool idle() const { return active_.empty(); }
  /// Jobs finished (completed + shed) since `begin_run`.
  [[nodiscard]] std::uint64_t finished() const { return finished_this_run_; }
  /// Occupied slots + queued slot width: the deterministic-least-loaded
  /// router's load figure.
  [[nodiscard]] int load() const {
    return active_width_ + admission_.queued_width();
  }
  [[nodiscard]] int active_width() const { return active_width_; }
  [[nodiscard]] std::uint64_t completed_so_far() const {
    return completed_so_far_;
  }

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  /// The resolved mix (`default_mix()` when the config left it empty).
  [[nodiscard]] const std::vector<JobTemplate>& mix() const { return mix_; }
  /// Size of the stateless adversary family (for `draw_adversary_index`).
  [[nodiscard]] std::size_t adversary_count() const {
    return adversaries_.size();
  }

  /// Slots constructed / recycled since construction (mirrors the
  /// `service.slots_created` / `service.slot_reuse` counters, readable
  /// without a registry snapshot).
  [[nodiscard]] std::uint64_t slots_created() const { return slots_created_; }
  [[nodiscard]] std::uint64_t slot_reuses() const { return slot_reuses_; }

 private:
  struct Shape;
  struct InstanceSlot;
  struct ActiveJob;

  friend ServiceResult detail::run(
      std::span<AgreementService* const> shards, const ServiceConfig& config,
      sweep::ThreadPool* pool, const std::function<int(std::uint64_t)>& route);

  /// One batched round tick at `now` over `shards`: every instance
  /// advances one round (on `pool` as a fork-join round of (shard,
  /// instance-chunk) chunks, or inline), then each shard settles — completion scan, deadline sweep,
  /// queue drain. `step` is this over one shard with no pool.
  static void tick(std::span<AgreementService* const> shards, double now,
                   sweep::ThreadPool* pool);

  void build_shapes();
  [[nodiscard]] InstanceSlot* acquire_slot(int shape_index);
  void release_slot(InstanceSlot* slot);
  [[nodiscard]] bool try_admit(std::uint64_t local, double now);
  void shed_job(std::uint64_t local, double at, bool deadline_missed);
  void expire_deadlines(double now);
  void drain_queue(double now);
  /// dispatch_pending + process_round for active_[begin, end).
  void advance(std::size_t begin, std::size_t end);
  /// The sequential part of a tick, after every instance advanced.
  void settle(double now);
  void complete_sub_instance(InstanceSlot& slot, double now);
  [[nodiscard]] bool job_injected(std::uint64_t job_id) const;

  ServiceConfig config_;
  std::vector<JobTemplate> mix_;
  /// Stateless adversary family shared by all concurrent instances.
  std::vector<std::unique_ptr<sim::Adversary>> adversaries_;
  std::vector<std::unique_ptr<Shape>> shapes_;
  /// mix_[t] -> indices into shapes_, one per sub-instance of a job.
  std::vector<std::vector<int>> template_shapes_;

  std::vector<std::unique_ptr<InstanceSlot>> slots_;   // owner
  std::vector<std::vector<InstanceSlot*>> free_slots_;  // per shape
  std::vector<InstanceSlot*> active_;
  std::vector<ActiveJob> jobs_;  // per offered job, by local index
  AdmissionQueue admission_;
  int active_width_ = 0;
  /// Pooled tick: this shard's advance chunks still running. The chunk
  /// that takes it to zero runs `settle`.
  std::atomic<std::size_t> chunks_left_{0};

  std::uint64_t slots_created_ = 0;
  std::uint64_t slot_reuses_ = 0;

  // Per-run scratch (kept across runs to preserve capacity). Records and
  // job states are appended per offer; in `run()` the local index equals
  // the job id, under the front-end it is the shard-local offer ordinal
  // (`records_[local].id` holds the global id).
  std::vector<JobRecord> records_;
  std::uint64_t finished_this_run_ = 0;  // completed + shed jobs
  std::uint64_t ticks_this_run_ = 0;
  int peak_active_ = 0;
  sim::RunResult scratch_result_;
  ConditionReport scratch_report_;

  // Observability scratch (spans/sketches, reset per run).
  bool recording_ = false;        // record_spans, post kill-switch gate
  bool inject_enabled_ = false;   // fault_plan.active()
  std::vector<obs::Span> spans_;  // moved out by end_run
  std::size_t span_reserve_ = 0;  // last run's span count
  obs::QuantileSketch latency_sketch_;
  obs::QuantileSketch queue_sketch_;
  std::array<obs::QuantileSketch, kAdmissionClassCount> class_latency_{};
  std::uint64_t completed_so_far_ = 0;
  std::uint64_t shed_so_far_ = 0;
  std::uint64_t deadline_missed_so_far_ = 0;
  std::array<std::uint64_t, kAdmissionClassCount> completed_by_class_{};
};

/// One-shot convenience: construct, run once, return the result.
[[nodiscard]] ServiceResult run_service(const ServiceConfig& config);

}  // namespace da::service
