#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace da::obs {

/// Causal span tracing for the agreement service and the three runtimes,
/// stamped in **virtual time** (service spans) or **round units** (runtime
/// phase spans) — never wall clock — so a span export is a deterministic
/// function of the execution and byte-identical across `--jobs` values
/// and runtimes (docs/OBSERVABILITY.md "Spans").
///
/// The causal tree the service emits per job:
///
///   job <id>                       arrival -> completion (or shed)
///   ├─ queue <id>                  arrival -> admission
///   └─ inst <id>/<sub>             admission -> sub-instance decision
///      ├─ round <id>/<sub>/<r>     previous tick -> this tick
///      ├─ decide <id>/<sub>        the decision instant
///      └─ recycle <id>/<sub>       slot returned to the pool
///
/// Runtime executions emit per-round *phase* spans instead (send /
/// deliver / resolve, one triple per round, stamped in round units).
///
/// A span is plain data: its name is a `string_view` into static storage
/// (the fixed vocabulary below), its parent is a stored identity, and its
/// tags live in an inline array keyed by a static key table. Recording a
/// span never allocates; ids and JSON are rendered only at export.

/// The span vocabulary in lifecycle order: spans sharing a start instant
/// sort parents before the children they caused, phases in causal order.
inline constexpr std::array<std::string_view, 9> kSpanNames = {
    "job",     "queue", "inst",   "send",    "deliver",
    "resolve", "round", "decide", "recycle"};

/// A span's kind: its index in kSpanNames, or kNone for "no span".
enum class SpanKind : std::uint8_t {
  kJob,
  kQueue,
  kInst,
  kSend,
  kDeliver,
  kResolve,
  kRound,
  kDecide,
  kRecycle,
  kNone,
};

/// Every tag key, sorted, so key order is index order: the fixed keys
/// (template/adversary indices, message tallies, `inj_*` injection
/// deltas) and one `rule<k>` per FaultPlan rule a span can hold.
inline constexpr std::array<std::string_view, 25> kSpanTagKeys = {
    "adv",         "class",          "cond",         "deadline",
    "dropped",     "inj_crash_dropped",
    "inj_delayed", "inj_dropped",    "inj_duplicated", "inj_examined",
    "messages",    "nodes",          "ok",           "rounds",
    "rule0",       "rule1",          "rule2",        "rule3",
    "rule4",       "rule5",          "rule6",        "rule7",
    "shed",        "tmpl",           "width"};

/// A tag key, held as its index in kSpanTagKeys. A string literal
/// resolves at compile time (an unknown literal does not compile); runtime
/// text resolves through `find`.
class SpanTagKey {
 public:
  consteval SpanTagKey(const char* key)  // NOLINT(google-explicit-constructor)
      : index_(index_of(key)) {}

  /// The key spelled `text`, or nullopt when it is not a key.
  [[nodiscard]] static std::optional<SpanTagKey> find(std::string_view text);
  /// `rule<k>`, k < SpanTags::kCapacity (a span cannot hold more rule
  /// tags than that).
  [[nodiscard]] static SpanTagKey rule(std::size_t k);

  [[nodiscard]] constexpr std::uint8_t index() const { return index_; }

 private:
  explicit constexpr SpanTagKey(std::uint8_t index) : index_(index) {}

  static consteval std::uint8_t index_of(std::string_view key) {
    for (std::size_t i = 0; i < kSpanTagKeys.size(); ++i) {
      if (kSpanTagKeys[i] == key) return static_cast<std::uint8_t>(i);
    }
    throw "not a span tag key";  // ill-formed in a constant expression
  }

  std::uint8_t index_;
};

/// Span identity: the fields a span id is rendered from. A parent is
/// stored as one of these, not as its rendered id.
struct SpanRef {
  SpanKind kind = SpanKind::kNone;
  std::int64_t job = -1;  // omitted from the id when negative
  int sub = -1;           // likewise
  int round = -1;         // likewise

  [[nodiscard]] bool empty() const { return kind == SpanKind::kNone; }
  /// kSpanNames[kind]; "" when empty.
  [[nodiscard]] std::string_view name() const;

  /// name[:job][.sub][#round], e.g. "round:12.0#3" or "send#2"; "" when
  /// empty.
  [[nodiscard]] std::string id() const;

  /// Parses a rendered id over the span vocabulary. Only the canonical
  /// spelling (no sign, no leading zeros) is accepted, so
  /// `parse(id)->id() == id` whenever parsing succeeds.
  [[nodiscard]] static std::optional<SpanRef> parse(std::string_view id);

  friend bool operator==(const SpanRef&, const SpanRef&) = default;
};

/// Up to `kCapacity` (key, int64) tags inline. A key is stored as its
/// index in kSpanTagKeys and read back as a view of that static table, so
/// a span holds no strings and copying one copies no heap memory. One
/// byte per key keeps a Span at 152 bytes; with a `string_view` per key it
/// was 280, and a front-end run holds its ~12k spans twice while merging.
class SpanTags {
 public:
  using value_type = std::pair<std::string_view, std::int64_t>;
  /// The widest span the service records under the `frontend` benchmark
  /// plan carries six tags (an injected inst span: rounds, three inj_*
  /// tallies, two rules); the service rejects a FaultPlan whose spans
  /// could exceed the capacity.
  static constexpr std::size_t kCapacity = 8;

  /// Yields (key, value) pairs by value.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = SpanTags::value_type;
    using difference_type = std::ptrdiff_t;
    using reference = value_type;
    using pointer = void;

    const_iterator() = default;
    const_iterator(const SpanTags* tags, std::size_t i) : tags_(tags), i_(i) {}
    value_type operator*() const { return (*tags_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++i_;
      return before;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    const SpanTags* tags_ = nullptr;
    std::size_t i_ = 0;
  };

  SpanTags() = default;
  /// Every key must be in kSpanTagKeys (a contract failure otherwise).
  SpanTags(std::initializer_list<value_type> tags);

  /// Appends a tag. A full array is a contract failure: the recorder
  /// bounds its widest span up front, the reader checks before adding.
  void add(SpanTagKey key, std::int64_t value) {
    if (size_ == kCapacity) overflow();
    keys_[size_] = key.index();
    values_[size_] = value;
    ++size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }
  [[nodiscard]] value_type operator[](std::size_t i) const {
    return {kSpanTagKeys[keys_[i]], values_[i]};
  }
  /// The value tagged `key`, or nullopt.
  [[nodiscard]] std::optional<std::int64_t> find(std::string_view key) const;

  /// Sorts the tags by key (then value).
  void sort();
  [[nodiscard]] bool sorted() const;

  friend bool operator==(const SpanTags& a, const SpanTags& b);
  /// Lexicographic over (key, value) pairs.
  friend std::strong_ordering operator<=>(const SpanTags& a,
                                          const SpanTags& b);

 private:
  [[noreturn]] static void overflow();
  [[nodiscard]] std::pair<std::uint8_t, std::int64_t> item(
      std::size_t i) const {
    return {keys_[i], values_[i]};
  }

  std::array<std::int64_t, kCapacity> values_{};
  std::array<std::uint8_t, kCapacity> keys_{};  // indices into kSpanTagKeys
  std::uint8_t size_ = 0;
};

struct Span {
  std::string_view name;  // an entry of kSpanNames (export requires it)
  std::int64_t job = -1;  // owning service job id; -1 for runtime spans
  int sub = -1;           // sub-instance (IC coordinate); -1 when n/a
  int round = -1;         // round index; -1 when n/a
  double t0 = 0.0;        // virtual time (service) or round units (runtime)
  double t1 = 0.0;
  SpanRef parent;         // identity of the parent span; empty = root
  SpanTags tags;          // sorted by key once canonical

  /// This span's identity (kind kNone if `name` is not in the vocabulary).
  [[nodiscard]] SpanRef ref() const;

  /// Deterministic span id derived from identity, never from a counter:
  /// name[:job][.sub][#round].
  [[nodiscard]] std::string id() const { return ref().id(); }

  /// Decodes one span record (names and keys resolved to the static
  /// vocabulary). The error has no position; its kind is kBadValue (a
  /// field missing, mistyped or out of range), kUnknownName,
  /// kTooManyTags, kUnknownTagKey, kIdMismatch or kBadParent.
  [[nodiscard]] static Parsed<Span> from_json(const Json& j);

  friend bool operator==(const Span&, const Span&) = default;
};

/// Sorts spans into canonical export order — (t0, job, sub, lifecycle
/// rank, round), then the remaining fields — and each span's tags by key.
/// Two span sets with equal contents canonicalize to identical sequences
/// regardless of emission order.
void canonicalize(std::vector<Span>& spans);

/// `canonicalize` of the concatenation of `runs` (one per shard, each in
/// any order), with each span copied once: the spans are ordered by
/// packed integer keys, and only spans whose keys tie are compared field
/// by field.
[[nodiscard]] std::vector<Span> merge_canonical(
    std::span<const std::span<const Span>> runs);

/// Canonical JSONL: one compact JSON object per line, canonical order,
/// whatever the order of `spans`. Canonical input is written directly,
/// without a copy or a sort.
[[nodiscard]] std::string spans_to_jsonl(const std::vector<Span>& spans);

/// Parses a JSONL span export, accepting exactly what `spans_to_jsonl`
/// writes (each line the canonical rendering of its span, in canonical
/// order, newline-terminated); the error names the first offending line.
[[nodiscard]] Parsed<std::vector<Span>> read_spans_jsonl(
    std::string_view text);

/// Writes the JSONL export to `file_path`. Returns false on I/O failure.
bool write_spans_jsonl(const std::vector<Span>& spans,
                       const std::string& file_path);

/// Per-round phase tallies for one runtime execution. The runtimes call
/// the `note_*` hooks from their dispatch/arrival/round loops (the sim
/// and event runtimes single-threaded, the threaded runtime under its
/// shared mutex — callers serialize, the sink does not lock); after the
/// run, `round_spans()` renders one send/deliver/resolve triple per round
/// plus a final decide span. Counts derive from the same per-message
/// events as the `*.messages_sent` / `*.messages_delivered` counters, so
/// runtimes that agree on those (the differential contract) export
/// byte-identical phase spans.
///
/// Under DA_METRICS_DISABLED every hook is an inline no-op and
/// `round_spans()` is empty.
class SpanSink {
 public:
#ifndef DA_METRICS_DISABLED
  void note_send(int round, std::uint64_t n);
  void note_deliver(int round, std::uint64_t n);
  void note_resolve(int round, std::uint64_t nodes);
  void note_done(int total_rounds);
  void clear();
  [[nodiscard]] std::vector<Span> round_spans() const;
#else
  void note_send(int, std::uint64_t) {}
  void note_deliver(int, std::uint64_t) {}
  void note_resolve(int, std::uint64_t) {}
  void note_done(int) {}
  void clear() {}
  [[nodiscard]] std::vector<Span> round_spans() const { return {}; }
#endif

 private:
#ifndef DA_METRICS_DISABLED
  void ensure(int round);

  std::vector<std::uint64_t> sends_;
  std::vector<std::uint64_t> delivers_;
  std::vector<std::uint64_t> resolves_;
  int total_rounds_ = -1;  // set by note_done
#endif
};

}  // namespace da::obs
