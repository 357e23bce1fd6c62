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

/// Causal span tracing for the agreement service, stamped in **virtual
/// time** — never wall clock — so a span export is a deterministic
/// function of the configuration and byte-identical across `--jobs`
/// values (docs/OBSERVABILITY.md "Causal spans").
///
/// The causal tree the service emits per job:
///
///   job <id>                       arrival -> completion (or shed)
///   ├─ queue <id>                  arrival -> admission
///   ├─ inst <id>/<sub>             admission -> sub-instance decision
///   │  ├─ round <id>/<sub>/<r>     previous tick -> this tick
///   │  └─ recycle <id>/<sub>       slot returned to the pool
///   └─ decide <id>                 the job's decision instant
///
/// One record type carries a span from recording to export:
///
///   SpanLog (per shard, emission order) --SpanSet::merge--> SpanSet
///   (per run, canonical order) --spans_to_jsonl--> JSONL
///
/// A record is compact (kind byte, identity, window; tags in a shared
/// pool) and its parent is implied by its kind, per the tree above. The
/// service keeps its log across runs; a run gathers its shards' records
/// into one canonical set, and the export writes each line straight from
/// a record. A `Span` is the plain-data view of one record, built on
/// demand when a set is iterated. Ids and JSON are rendered only at
/// export.

/// The span vocabulary in lifecycle order: spans sharing a start instant
/// sort parents before the children they caused.
inline constexpr std::array<std::string_view, 6> kSpanNames = {
    "job", "queue", "inst", "round", "decide", "recycle"};

/// A span's kind: its index in kSpanNames, or kNone for "no span".
enum class SpanKind : std::uint8_t {
  kJob,
  kQueue,
  kInst,
  kRound,
  kDecide,
  kRecycle,
  kNone,
};

/// Every tag key, sorted, so key order is index order: the fixed keys
/// (template/adversary indices, outcomes, `inj_*` injection deltas) and
/// one `rule<k>` per FaultPlan rule a span can hold.
inline constexpr std::array<std::string_view, 22> kSpanTagKeys = {
    "adv",         "class",         "cond",
    "deadline",    "inj_crash_dropped",
    "inj_delayed", "inj_dropped",   "inj_duplicated",
    "inj_examined", "ok",           "rounds",
    "rule0",       "rule1",         "rule2",
    "rule3",       "rule4",         "rule5",
    "rule6",       "rule7",         "shed",
    "tmpl",        "width"};

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

  /// name[:job][.sub][#round], e.g. "round:12.0#3" or "queue:7"; "" when
  /// empty.
  [[nodiscard]] std::string id() const;

  /// The parent in the service's tree, implied by the kind: queue, inst
  /// and decide hang off `job:<job>`, round and recycle off
  /// `inst:<job>.<sub>`; a job span (or an empty ref) is a root.
  [[nodiscard]] SpanRef parent() const;

  friend bool operator==(const SpanRef&, const SpanRef&) = default;
};

/// An input iterator that yields `(*container)[i]` by value: SpanTags and
/// SpanSet build their elements as they are read.
template <typename Container, typename Value>
class IndexIterator {
 public:
  using iterator_category = std::input_iterator_tag;
  using value_type = Value;
  using difference_type = std::ptrdiff_t;
  using reference = Value;
  using pointer = void;

  IndexIterator() = default;
  IndexIterator(const Container* container, std::size_t i)
      : container_(container), i_(i) {}
  Value operator*() const { return (*container_)[i_]; }
  IndexIterator& operator++() {
    ++i_;
    return *this;
  }
  IndexIterator operator++(int) {
    IndexIterator before = *this;
    ++i_;
    return before;
  }
  friend bool operator==(const IndexIterator&,
                         const IndexIterator&) = default;

 private:
  const Container* container_ = nullptr;
  std::size_t i_ = 0;
};

/// Up to `kCapacity` (key, int64) tags inline. A key is stored as its
/// index in kSpanTagKeys and read back as a view of that static table, so
/// a span holds no strings and copying one copies no heap memory.
class SpanTags {
 public:
  using value_type = std::pair<std::string_view, std::int64_t>;
  /// The widest span the service records under the `frontend` benchmark
  /// plan carries six tags (an injected inst span: rounds, three inj_*
  /// tallies, two rules); the service rejects a FaultPlan whose spans
  /// could exceed the capacity.
  static constexpr std::size_t kCapacity = 8;

  /// Yields (key, value) pairs by value.
  using const_iterator = IndexIterator<SpanTags, value_type>;

  SpanTags() = default;
  /// Every key must be in kSpanTagKeys (a contract failure otherwise).
  SpanTags(std::initializer_list<value_type> tags);

  /// Appends a tag. A full array is a contract failure: the recorder
  /// bounds its widest span up front, the reader checks before adding.
  void add(SpanTagKey key, std::int64_t value) {
    if (size_ == kCapacity) refuse("a span tag array has room");
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

  friend bool operator==(const SpanTags& a, const SpanTags& b);
  /// Lexicographic over (key, value) pairs.
  friend std::strong_ordering operator<=>(const SpanTags& a,
                                          const SpanTags& b);

 private:
  friend struct SpanRecords;  // builds a span's tags from the pool
  friend class SpanLog;       // refuses as a tag array does

  /// A broken precondition of span recording (a contract failure).
  [[noreturn]] static void refuse(const char* condition);
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
  std::int64_t job = -1;  // owning service job id; -1 when n/a
  int sub = -1;           // sub-instance (IC coordinate); -1 when n/a
  int round = -1;         // round index; -1 when n/a
  double t0 = 0.0;        // virtual time
  double t1 = 0.0;
  SpanTags tags;          // sorted by key in a SpanSet

  /// This span's identity (kind kNone if `name` is not in the vocabulary).
  [[nodiscard]] SpanRef ref() const;
  /// Its parent in the service's tree (`SpanRef::parent`); empty = root.
  [[nodiscard]] SpanRef parent() const { return ref().parent(); }

  /// Deterministic span id derived from identity, never from a counter:
  /// name[:job][.sub][#round].
  [[nodiscard]] std::string id() const { return ref().id(); }

  /// Decodes one span record (names and keys resolved to the static
  /// vocabulary). The error has no position; its kind is kBadValue (a
  /// field missing, mistyped or out of range), kUnknownName,
  /// kTooManyTags, kUnknownTagKey, kIdMismatch or kBadParent (the parent
  /// is not the span's tree parent).
  [[nodiscard]] static Parsed<Span> from_json(const Json& j);

  friend bool operator==(const Span&, const Span&) = default;
};

/// A span's place in canonical order as a merge sorts it: the ordered
/// bits of t0, then job, sub, lifecycle rank and round packed into 64
/// bits, then which log and which of its records it is. A recorder that
/// merges every run keeps a vector of these, so the merge reuses it.
struct SpanKey {
  std::uint64_t t0 = 0;
  std::uint64_t identity = 0;
  std::uint32_t run = 0;
  std::uint32_t index = 0;
};

/// Spans as compact records: what a SpanLog appends to in emission order
/// and a SpanSet holds in canonical order. A record holds the kind as a
/// byte, the identity and the window (40 bytes); its parent is implied by
/// its kind (`SpanRef::parent`), and its tags sit in one pool at 9 bytes
/// each. A front-end stream's spans average under 64 bytes here, against
/// a Span's 128.
struct SpanRecords {
  struct Record {
    double t0;
    double t1;
    std::int64_t job;
    std::int32_t sub;
    std::int32_t round;
    std::uint32_t first_tag;  // index of its first tag in the pool
    SpanKind kind;
    std::uint8_t tags;  // how many
  };

  std::vector<Record> records;
  std::vector<std::int64_t> tag_values;
  std::vector<std::uint8_t> tag_keys;  // indices into kSpanTagKeys

  /// Record `i` built as a Span.
  [[nodiscard]] Span span(std::size_t i) const;
  /// Appends a copy of `from`'s record `i` and its tags.
  void append(const SpanRecords& from, std::size_t i);
};

/// A shard's spans as it records them, in emission order, kept across
/// runs: `clear` keeps the capacity, so a warm run records without
/// allocating.
class SpanLog {
 public:
  /// Appends a span with no tags yet; `self` must not be empty.
  void add(const SpanRef& self, double t0, double t1) {
    if (self.empty() || log_.tag_keys.size() >= kMaxTags) {
      SpanTags::refuse(
          "a span log records a named span and has room for its tags");
    }
    log_.records.push_back({t0, t1, self.job, self.sub, self.round,
                            static_cast<std::uint32_t>(log_.tag_keys.size()),
                            self.kind, 0});
  }
  /// Tags the span added last, keeping its tags sorted by (key, value)
  /// as a set holds them. A full span is a contract failure, as in
  /// `SpanTags::add`.
  void tag(SpanTagKey key, std::int64_t value) {
    if (log_.records.empty() ||
        log_.records.back().tags == SpanTags::kCapacity) {
      SpanTags::refuse("a span log tags a span with room for the tag");
    }
    const std::size_t first = log_.records.back().first_tag;
    ++log_.records.back().tags;
    std::vector<std::uint8_t>& keys = log_.tag_keys;
    std::vector<std::int64_t>& values = log_.tag_values;
    keys.push_back(key.index());
    values.push_back(value);
    for (std::size_t j = keys.size() - 1;
         j > first && std::pair(keys[j - 1], values[j - 1]) >
                          std::pair(keys[j], values[j]);
         --j) {
      std::swap(keys[j - 1], keys[j]);
      std::swap(values[j - 1], values[j]);
    }
  }
  /// Appends `span` (its name must be in the vocabulary) and its tags.
  void add(const Span& span);

  void clear();
  [[nodiscard]] std::size_t size() const { return log_.records.size(); }

 private:
  friend class SpanSet;

  /// A record addresses its tags with 32 bits.
  static constexpr std::size_t kMaxTags = std::uint32_t{0xffffffff};

  SpanRecords log_;
};

/// A run's spans in canonical order — (t0, job, sub, lifecycle rank,
/// round), then t1 and the tags — each span's tags sorted by key: its
/// shards' log records gathered by `merge`, with their tag pool. Only the
/// merge makes one, so a set is canonical by construction: two sets of
/// equal spans are equal record for record, whatever order they were
/// logged in, and `spans_to_jsonl` writes a set as it stands. Iteration
/// yields each record as a `Span`, built on demand.
class SpanSet {
 public:
  /// Yields Spans by value.
  using const_iterator = IndexIterator<SpanSet, Span>;

  /// The records of `logs` (one per shard) in canonical order, each
  /// copied once. The records are ordered by packed integer keys, and
  /// only records whose keys tie are compared field by field. `keys` is
  /// scratch, cleared first and left holding the sorted keys.
  [[nodiscard]] static SpanSet merge(std::span<const SpanLog* const> logs,
                                     std::vector<SpanKey>& keys);

  [[nodiscard]] std::size_t size() const { return set_.records.size(); }
  [[nodiscard]] bool empty() const { return set_.records.empty(); }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }
  /// Span `i` in canonical order, built from its record.
  [[nodiscard]] Span operator[](std::size_t i) const { return set_.span(i); }

  void swap(SpanSet& other) noexcept { std::swap(set_, other.set_); }

 private:
  friend std::string spans_to_jsonl(const SpanSet& spans);

  SpanRecords set_;
};

/// Canonical JSONL: one compact JSON object per line, in the set's
/// (canonical) order, each written straight from its record.
[[nodiscard]] std::string spans_to_jsonl(const SpanSet& spans);

/// Parses a JSONL span export, accepting exactly what `spans_to_jsonl`
/// writes (each line the canonical rendering of its span, in canonical
/// order, newline-terminated); the error names the first offending line.
[[nodiscard]] Parsed<SpanSet> read_spans_jsonl(std::string_view text);

/// Writes the JSONL export to `file_path`. Returns false on I/O failure.
bool write_spans_jsonl(const SpanSet& spans, const std::string& file_path);

}  // namespace da::obs
