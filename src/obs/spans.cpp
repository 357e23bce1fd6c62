#include "obs/spans.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <compare>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <span>
#include <tuple>

#include "util/contracts.hpp"

namespace da::obs {

namespace {

static_assert(std::is_sorted(kSpanTagKeys.begin(), kSpanTagKeys.end()),
              "tag key order must be index order");
static_assert(kSpanTagKeys.size() <= 256, "tag keys are stored as bytes");

constexpr SpanTagKey kRule0 = "rule0";
static_assert(kSpanTagKeys[kRule0.index() + SpanTags::kCapacity - 1] ==
              "rule7");

/// The kind spelled `text` (its index in kSpanNames, its lifecycle
/// rank), or nullopt for a name outside the vocabulary.
std::optional<SpanKind> span_kind(std::string_view text) {
  const auto* it = std::find(kSpanNames.begin(), kSpanNames.end(), text);
  if (it == kSpanNames.end()) return std::nullopt;
  return static_cast<SpanKind>(it - kSpanNames.begin());
}

/// A double's bits mapped so that unsigned order is IEEE total order:
/// equal to `<` on the values spans carry, and still a strict weak order
/// if a NaN slips in.
std::uint64_t ordered(double d) {
  const auto u = std::bit_cast<std::uint64_t>(d);
  return (u >> 63) != 0 ? ~u : u | (std::uint64_t{1} << 63);
}

using Record = SpanRecords::Record;

/// Canonical order on records, field by field: (t0, job, sub, lifecycle
/// rank, round), then t1 and the sorted tags, so that the order is total.
/// A record's parent is implied by its kind, job and sub, so it orders
/// nothing the head does not.
bool before(const SpanRecords& a, std::size_t i, const SpanRecords& b,
            std::size_t j) {
  const auto fields = [](const Record& r) {
    return std::tuple(ordered(r.t0), r.job, r.sub, r.kind, r.round,
                      ordered(r.t1));
  };
  if (const auto c = fields(a.records[i]) <=> fields(b.records[j]); c != 0) {
    return c < 0;
  }
  return a.span(i).tags < b.span(j).tags;
}

/// A record's identity (job, sub, lifecycle rank, round) packed into 64
/// bits in compare order, so that packs compare as `before` does after
/// t0. A field in [-1, 2^bits - 4] packs to value + 2; one outside
/// packs to an end code (0 or 2^bits - 1) and ends the pack, the later
/// fields left 0. So the pack never inverts the order: it can only tie
/// two different heads, and a tie falls back to the full compare. Every
/// span the service records packs without an end code.
std::uint64_t packed_identity(std::int64_t job, int sub, int rank,
                              int round) {
  const std::pair<std::int64_t, int> fields[] = {
      {job, 32}, {sub, 12}, {rank, 4}, {round, 16}};
  std::uint64_t pack = 0;
  int shift = 64;
  for (const auto& [value, bits] : fields) {
    shift -= bits;
    const std::int64_t top = (std::int64_t{1} << bits) - 1;
    const std::int64_t code =
        value < -1 ? 0 : (value > top - 3 ? top : value + 2);
    pack |= static_cast<std::uint64_t>(code) << shift;
    if (code == 0 || code == top) break;
  }
  return pack;
}

/// The double whose `ordered` bits are `u`.
double unordered(std::uint64_t u) {
  return std::bit_cast<double>((u >> 63) != 0 ? u & ~(std::uint64_t{1} << 63)
                                              : ~u);
}

/// Sorts `keys` by `less`, which orders by (t0, identity) first. A
/// shard's log is far from sorted (a front-end shard's records ascend in
/// t0 for 2.2 at a time), so there are no sorted runs to merge; three
/// linear steps do it instead:
///  1. a stable radix sort by identity, one pass per byte that the keys
///     do not all share (a run's identities use few bits);
///  2. a stable scatter by t0 into up to 4096 buckets of equal width, so
///     that a bucket holds few distinct instants and the keys of one
///     instant stay in identity order;
///  3. an insertion sort by `less`, which has little left to move. Past a
///     budget of moves (instants crowded into a few buckets, or a t0 span
///     that is not finite) a `std::sort` finishes instead.
template <typename Less>
void sort_keys(std::vector<SpanKey>& keys, const Less& less) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  std::uint64_t varying = 0;
  for (const SpanKey& k : keys) varying |= k.identity ^ keys[0].identity;
  const auto [lo, hi] = std::ranges::minmax(keys, {}, &SpanKey::t0);
  constexpr std::size_t kBuckets = 4096;
  std::array<std::uint32_t, kBuckets> count{};
  keys.resize(2 * n);
  SpanKey* from = keys.data();
  SpanKey* to = keys.data() + n;
  // Moves the keys to `to`, stably, in order of `bucket` (< buckets).
  const auto scatter = [&](std::size_t buckets, auto bucket) {
    std::fill_n(count.begin(), buckets, 0);
    for (std::size_t i = 0; i < n; ++i) ++count[bucket(from[i])];
    std::exclusive_scan(count.begin(), count.begin() + buckets, count.begin(),
                        std::uint32_t{0});
    for (std::size_t i = 0; i < n; ++i) to[count[bucket(from[i])]++] = from[i];
    std::swap(from, to);
  };
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    scatter(256, [shift](const SpanKey& k) {
      return static_cast<std::size_t>((k.identity >> shift) & 0xff);
    });
  }
  // Rounding is monotone, so buckets keep t0 order; the span scales to at
  // most buckets - 1.
  const double first = unordered(lo.t0);
  const double width = unordered(hi.t0) - first;
  const std::size_t buckets = std::min(n, kBuckets);
  const double scale = width > 0 ? static_cast<double>(buckets - 1) / width : 0;
  if (scale > 0 && std::isfinite(scale)) {
    scatter(buckets, [first, scale](const SpanKey& k) {
      return static_cast<std::size_t>((unordered(k.t0) - first) * scale);
    });
  }
  if (from != keys.data()) std::copy(from, from + n, keys.data());
  keys.resize(n);
  std::size_t budget = 8 * n;
  for (std::size_t i = 1; i < n; ++i) {
    const SpanKey k = keys[i];
    std::size_t j = i;
    for (; j > 0 && less(k, keys[j - 1]); --j) keys[j] = keys[j - 1];
    keys[j] = k;
    budget -= std::min(budget, i - j);
    if (budget == 0) {
      std::sort(keys.begin(), keys.end(), less);
      return;
    }
  }
}

// ---------------------------------------------------------- rendering --

// The export writes each line through a raw pointer into a buffer kept
// at least kMaxLine bytes ahead: no Json tree, no per-field bounds checks.

/// The most bytes one export line can take (606): field names and
/// punctuation (77), two ids of a vocabulary name and three integers each
/// (2 x 52), the name (7), three integers (42), two doubles (2 x 24) and
/// eight tags of at most 41 bytes.
constexpr std::size_t kMaxLine = 640;

char* put(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

template <typename Int>
char* put_int(char* p, Int value) {
  return std::to_chars(p, p + 24, value).ptr;
}

/// name[:job][.sub][#round], unquoted.
char* put_id(char* p, const SpanRef& ref) {
  p = put(p, ref.name());
  if (ref.job >= 0) {
    *p++ = ':';
    p = put_int(p, ref.job);
  }
  if (ref.sub >= 0) {
    *p++ = '.';
    p = put_int(p, ref.sub);
  }
  if (ref.round >= 0) {
    *p++ = '#';
    p = put_int(p, ref.round);
  }
  return p;
}

/// The renderings of the doubles one export has written, direct-mapped
/// by a multiplicative hash of their bits. A run's spans share few
/// instants (about one distinct t0/t1 value in fifteen in a front-end
/// stream), so most lookups copy bytes instead of formatting; a
/// collision formats again and takes the entry over.
class RenderedDoubles {
 public:
  /// A double as `%.17g` (non-finite -> null). Unlike `Json::dump`, an
  /// integral time stays `3`, not `3.0`: the export bytes are pinned.
  char* put_double(char* p, double value) {
    if (!std::isfinite(value)) return put(p, "null");
    const auto bits = std::bit_cast<std::uint64_t>(value);
    Entry& e = entries_[(bits * 0x9e3779b97f4a7c15) >> 58];
    if (e.size == 0 || e.bits != bits) {
      e.bits = bits;
      e.size = static_cast<std::uint8_t>(
          std::to_chars(e.text, e.text + sizeof e.text, value,
                        std::chars_format::general, 17)
              .ptr -
          e.text);
    }
    // A fixed-size copy is a few moves, where one sized to the rendering
    // is a call; the export keeps kMaxLine bytes of room ahead, and a
    // line's budget counts 24 bytes per double.
    std::memcpy(p, e.text, sizeof e.text);
    return p + e.size;
  }

 private:
  struct Entry {
    std::uint64_t bits = 0;
    std::uint8_t size = 0;  // 0: empty (a rendering is never empty)
    char text[24];          // the longest %.17g rendering
  };
  std::array<Entry, 64> entries_{};
};

/// One export line: the compact JSON of the record {id, name, job, sub,
/// round, t0, t1, parent, tags}, read from `set`'s record `i`. Vocabulary
/// names need no escaping, so none is done.
char* put_span_line(char* p, const SpanRecords& set, std::size_t i,
                    RenderedDoubles& doubles) {
  const Record& rec = set.records[i];
  const SpanRef self{rec.kind, rec.job, rec.sub, rec.round};
  p = put(p, "{\"id\":\"");
  p = put_id(p, self);
  p = put(p, "\",\"name\":\"");
  p = put(p, self.name());
  p = put(p, "\",\"job\":");
  p = put_int(p, rec.job);
  p = put(p, ",\"sub\":");
  p = put_int(p, rec.sub);
  p = put(p, ",\"round\":");
  p = put_int(p, rec.round);
  p = put(p, ",\"t0\":");
  p = doubles.put_double(p, rec.t0);
  p = put(p, ",\"t1\":");
  p = doubles.put_double(p, rec.t1);
  p = put(p, ",\"parent\":\"");
  p = put_id(p, self.parent());
  p = put(p, "\",\"tags\":{");
  for (std::size_t t = rec.first_tag; t < rec.first_tag + rec.tags; ++t) {
    if (t != rec.first_tag) *p++ = ',';
    *p++ = '"';
    p = put(p, kSpanTagKeys[set.tag_keys[t]]);
    p = put(p, "\":");
    p = put_int(p, set.tag_values[t]);
  }
  return put(p, "}}\n");
}

}  // namespace

std::optional<SpanTagKey> SpanTagKey::find(std::string_view text) {
  const auto it =
      std::lower_bound(kSpanTagKeys.begin(), kSpanTagKeys.end(), text);
  if (it == kSpanTagKeys.end() || *it != text) return std::nullopt;
  return SpanTagKey(static_cast<std::uint8_t>(it - kSpanTagKeys.begin()));
}

SpanTagKey SpanTagKey::rule(std::size_t k) {
  DA_EXPECTS(k < SpanTags::kCapacity);
  return SpanTagKey(static_cast<std::uint8_t>(kRule0.index() + k));
}

std::string_view SpanRef::name() const {
  // "", not a null view: the export memcpy()s it, and a null source is
  // undefined behaviour even for zero bytes.
  return empty() ? std::string_view("")
                 : kSpanNames[static_cast<std::size_t>(kind)];
}

std::string SpanRef::id() const {
  char buf[64];  // a vocabulary name and three integers
  return {buf, put_id(buf, *this)};
}

SpanRef SpanRef::parent() const {
  switch (kind) {
    case SpanKind::kQueue:
    case SpanKind::kInst:
    case SpanKind::kDecide:
      return {SpanKind::kJob, job};
    case SpanKind::kRound:
    case SpanKind::kRecycle:
      return {SpanKind::kInst, job, sub};
    case SpanKind::kJob:
    case SpanKind::kNone:
      break;
  }
  return {};
}

SpanTags::SpanTags(std::initializer_list<value_type> tags) {
  for (const auto& [text, value] : tags) {
    const std::optional<SpanTagKey> key = SpanTagKey::find(text);
    DA_EXPECTS(key.has_value());
    add(*key, value);
  }
}

void SpanTags::refuse(const char* condition) {
  detail::contract_failure("precondition", condition, __FILE__, __LINE__);
}

std::optional<std::int64_t> SpanTags::find(std::string_view key) const {
  for (std::size_t i = 0; i < size_; ++i) {
    if (kSpanTagKeys[keys_[i]] == key) return values_[i];
  }
  return std::nullopt;
}

bool operator==(const SpanTags& a, const SpanTags& b) {
  return (a <=> b) == 0;
}

std::strong_ordering operator<=>(const SpanTags& a, const SpanTags& b) {
  for (std::size_t i = 0; i < a.size_ && i < b.size_; ++i) {
    if (const auto c = a.item(i) <=> b.item(i); c != 0) return c;
  }
  return a.size_ <=> b.size_;
}

Span SpanRecords::span(std::size_t i) const {
  const Record& rec = records[i];
  Span s{kSpanNames[static_cast<std::size_t>(rec.kind)],
         rec.job, rec.sub, rec.round, rec.t0, rec.t1, {}};
  for (std::size_t t = 0; t < rec.tags; ++t) {
    s.tags.keys_[t] = tag_keys[rec.first_tag + t];
    s.tags.values_[t] = tag_values[rec.first_tag + t];
  }
  s.tags.size_ = rec.tags;
  return s;
}

void SpanRecords::append(const SpanRecords& from, std::size_t i) {
  Record rec = from.records[i];
  const auto tags = static_cast<std::ptrdiff_t>(rec.first_tag);
  rec.first_tag = static_cast<std::uint32_t>(tag_keys.size());
  tag_keys.insert(tag_keys.end(), from.tag_keys.begin() + tags,
                  from.tag_keys.begin() + tags + rec.tags);
  tag_values.insert(tag_values.end(), from.tag_values.begin() + tags,
                    from.tag_values.begin() + tags + rec.tags);
  records.push_back(rec);
}

void SpanLog::add(const Span& span) {
  add(span.ref(), span.t0, span.t1);
  for (const auto& [key, value] : span.tags) {
    tag(SpanTagKey::find(key).value(), value);
  }
}

void SpanLog::clear() {
  log_.records.clear();
  log_.tag_values.clear();
  log_.tag_keys.clear();
}

SpanRef Span::ref() const {
  return {span_kind(name).value_or(SpanKind::kNone), job, sub, round};
}

Parsed<Span> Span::from_json(const Json& j) {
  const auto fail = [](ParseKind kind, const char* why) {
    return ParseError{kind, 0, 0, why};
  };
  const ParseError bad{ParseKind::kBadValue, 0, 0,
                       "missing, mistyped or out-of-range field"};
  const auto number = [&j](const char* key, double& out) {
    const Json* v = j.find(key);
    if (v == nullptr || !v->is_number()) return false;
    out = v->as_double();
    return true;
  };
  const auto string = [&j](const char* key) -> const std::string* {
    const Json* v = j.find(key);
    return v != nullptr && v->is_string() ? &v->as_string() : nullptr;
  };

  Span s;
  const std::string* name = string("name");
  if (name == nullptr) return bad;
  const std::optional<SpanKind> kind = span_kind(*name);
  if (!kind) return fail(ParseKind::kUnknownName, "unknown span name");
  s.name = kSpanNames[static_cast<std::size_t>(*kind)];
  if (!int_member(j, "job", s.job) || !int_member(j, "sub", s.sub) ||
      !int_member(j, "round", s.round) || !number("t0", s.t0) ||
      !number("t1", s.t1)) {
    return bad;
  }
  const std::string* parent = string("parent");
  if (parent == nullptr) return bad;
  if (*parent != s.parent().id()) {
    return fail(ParseKind::kBadParent, "parent is not the span's tree parent");
  }
  const Json* tags = j.find("tags");
  if (tags == nullptr || !tags->is_object()) return bad;
  if (tags->size() > SpanTags::kCapacity) {
    return fail(ParseKind::kTooManyTags, "more tags than a span holds");
  }
  for (const auto& [key, value] : tags->as_object()) {
    const std::optional<SpanTagKey> known = SpanTagKey::find(key);
    if (!known) return fail(ParseKind::kUnknownTagKey, "unknown tag key");
    if (!value.is_integer()) return bad;
    s.tags.add(*known, value.as_int());
  }
  // The emitted "id" field is derived; a mismatch means a hand-edited
  // file — reject it rather than silently re-derive.
  const std::string* id = string("id");
  if (id == nullptr) return bad;
  if (*id != s.id()) {
    return fail(ParseKind::kIdMismatch,
                "id does not match the identity fields");
  }
  return s;
}

SpanSet SpanSet::merge(std::span<const SpanLog* const> logs,
                       std::vector<SpanKey>& keys) {
  keys.clear();
  std::size_t tags = 0;
  for (std::size_t r = 0; r < logs.size(); ++r) {
    const SpanRecords& log = logs[r]->log_;
    for (std::size_t i = 0; i < log.records.size(); ++i) {
      const Record& rec = log.records[i];
      keys.push_back({ordered(rec.t0),
                      packed_identity(rec.job, rec.sub,
                                      static_cast<int>(rec.kind), rec.round),
                      static_cast<std::uint32_t>(r),
                      static_cast<std::uint32_t>(i)});
    }
    tags += log.tag_keys.size();
  }
  // The sort counts keys, and a set's record addresses its tags, with 32
  // bits.
  DA_EXPECTS(keys.size() <= std::numeric_limits<std::uint32_t>::max() &&
             tags <= SpanLog::kMaxTags);
  // Keys tie only on duplicate identities or fields outside the packed
  // range: those are ordered field by field.
  sort_keys(keys, [logs](const SpanKey& a, const SpanKey& b) {
    if (a.t0 != b.t0 || a.identity != b.identity) {
      return std::pair(a.t0, a.identity) < std::pair(b.t0, b.identity);
    }
    return before(logs[a.run]->log_, a.index, logs[b.run]->log_, b.index);
  });
  SpanSet set;
  set.set_.records.reserve(keys.size());
  set.set_.tag_keys.reserve(tags);
  set.set_.tag_values.reserve(tags);
  for (const SpanKey& key : keys) {
    set.set_.append(logs[key.run]->log_, key.index);
  }
  return set;
}

std::string spans_to_jsonl(const SpanSet& spans) {
  const SpanRecords& set = spans.set_;
  std::string out;
  // Lines average ~160 bytes; the first sizing covers nearly every export.
  out.resize(set.records.size() * 176 + kMaxLine);
  std::size_t used = 0;
  RenderedDoubles doubles;
  for (std::size_t i = 0; i < set.records.size(); ++i) {
    if (out.size() - used < kMaxLine) out.resize(2 * out.size());
    used = static_cast<std::size_t>(
        put_span_line(out.data() + used, set, i, doubles) - out.data());
  }
  out.resize(used);
  return out;
}

Parsed<SpanSet> read_spans_jsonl(std::string_view text) {
  SpanLog log;
  TextCursor in(text);
  while (in.next_line()) {
    Parsed<Json> j = Json::parse(in.line());
    if (!j) return in.on_line(j.error());
    Parsed<Span> s = Span::from_json(*j);
    if (!s) return in.on_line(s.error());
    log.add(*s);
  }
  // The set sorts spans and tags, so this one comparison of its export
  // also rejects a file out of canonical order.
  const SpanLog* const logs[] = {&log};
  std::vector<SpanKey> keys;
  SpanSet spans = SpanSet::merge(logs, keys);
  const std::string canonical = spans_to_jsonl(spans);
  if (canonical != text) return not_canonical(text, canonical);
  return spans;
}

bool write_spans_jsonl(const SpanSet& spans, const std::string& file_path) {
  std::ofstream out(file_path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << spans_to_jsonl(spans);
  return static_cast<bool>(out);
}

}  // namespace da::obs
