#include "obs/spans.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <compare>
#include <cstring>
#include <fstream>
#include <limits>
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

constexpr auto kNoRank = static_cast<std::uint8_t>(SpanKind::kNone);

/// A name's slot in kRankBySlot, from its first and third letters: every
/// vocabulary name has three, and no two share a slot.
constexpr std::size_t name_slot(std::string_view name) {
  return (static_cast<std::size_t>(static_cast<unsigned char>(name[0])) * 4 +
          static_cast<unsigned char>(name[2])) &
         31;
}

constexpr std::array<std::uint8_t, 32> kRankBySlot = [] {
  std::array<std::uint8_t, 32> table{};
  table.fill(kNoRank);
  for (std::size_t i = 0; i < kSpanNames.size(); ++i) {
    // A throw is ill-formed in a constant expression: a clash fails the
    // build.
    if (table[name_slot(kSpanNames[i])] != kNoRank) throw "slot clash";
    table[name_slot(kSpanNames[i])] = static_cast<std::uint8_t>(i);
  }
  return table;
}();

/// Lifecycle rank: the index in kSpanNames (names outside it sort last),
/// in one table lookup and one comparison.
int name_rank(std::string_view name) {
  if (name.size() < 3) return kNoRank;
  const std::uint8_t rank = kRankBySlot[name_slot(name)];
  return rank != kNoRank && kSpanNames[rank] == name ? rank : kNoRank;
}

/// The kind spelled `text`, or nullopt for a name outside the vocabulary.
std::optional<SpanKind> span_kind(std::string_view text) {
  const int rank = name_rank(text);
  if (rank == static_cast<int>(SpanKind::kNone)) return std::nullopt;
  return static_cast<SpanKind>(rank);
}

/// A double's bits mapped so that unsigned order is IEEE total order:
/// equal to `<` on the values spans carry, and still a strict weak order
/// if a NaN slips in.
std::uint64_t ordered(double d) {
  const auto u = std::bit_cast<std::uint64_t>(d);
  return (u >> 63) != 0 ? ~u : u | (std::uint64_t{1} << 63);
}

/// Canonical order, head part: (t0, job, sub, lifecycle rank, round),
/// compared field by field so the name is ranked only on a tie.
std::strong_ordering compare_head(const Span& a, const Span& b) {
  if (const auto c = ordered(a.t0) <=> ordered(b.t0); c != 0) return c;
  if (const auto c = std::tie(a.job, a.sub) <=> std::tie(b.job, b.sub);
      c != 0) {
    return c;
  }
  return std::tuple(name_rank(a.name), a.round) <=>
         std::tuple(name_rank(b.name), b.round);
}

SpanTags sorted_copy(SpanTags tags) {
  tags.sort();
  return tags;
}

/// The rest of a span, so that the order is total: only spans with equal
/// identities and start times (duplicate ids) ever get this far. Tags
/// compare sorted, so the order does not depend on the order they were
/// added in.
std::strong_ordering compare_tail(const Span& a, const Span& b) {
  const auto tail = [](const Span& s) {
    return std::tuple(s.name, ordered(s.t1), s.parent.kind, s.parent.job,
                      s.parent.sub, s.parent.round);
  };
  if (const auto c = tail(a) <=> tail(b); c != 0) return c;
  return sorted_copy(a.tags) <=> sorted_copy(b.tags);
}

bool before(const Span& a, const Span& b) {
  if (const auto c = compare_head(a, b); c != 0) return c < 0;
  return compare_tail(a, b) < 0;
}

/// True when `spans` is already in canonical export order with every
/// span's tags sorted — one O(n) pass.
bool is_canonical(const std::vector<Span>& spans) {
  return std::all_of(spans.begin(), spans.end(),
                     [](const Span& s) { return s.tags.sorted(); }) &&
         std::is_sorted(spans.begin(), spans.end(), before);
}

/// The head's identity (job, sub, lifecycle rank, round) packed into 64
/// bits in compare order, so that packs compare as `compare_head` does
/// after t0. A field in [-1, 2^bits - 4] packs to value + 2; one outside
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

SpanKey key_of(double t0, std::int64_t job, int sub, int rank, int round,
               std::size_t run, std::size_t index) {
  DA_EXPECTS(index <= std::numeric_limits<std::uint32_t>::max());
  return {ordered(t0), packed_identity(job, sub, rank, round),
          static_cast<std::uint32_t>(run), static_cast<std::uint32_t>(index)};
}

/// The one sort behind every merge: sorts `keys` by their two integers,
/// comparing the spans they name (`span_at(key)`) only where both tie,
/// then builds each span once, tags sorted, in that order.
template <typename SpanAt>
std::vector<Span> merge_keys(std::vector<SpanKey>& keys,
                             const SpanAt& span_at) {
  std::sort(keys.begin(), keys.end(),
            [&span_at](const SpanKey& a, const SpanKey& b) {
              if (a.t0 != b.t0) return a.t0 < b.t0;
              if (a.identity != b.identity) return a.identity < b.identity;
              return before(span_at(a), span_at(b));
            });
  std::vector<Span> merged;
  merged.reserve(keys.size());
  for (const SpanKey& key : keys) {
    merged.push_back(span_at(key));
    merged.back().tags.sort();
  }
  return merged;
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
/// round, t0, t1, parent, tags}. Vocabulary names need no escaping, so
/// none is done.
char* put_span_line(char* p, const Span& s, RenderedDoubles& doubles) {
  const SpanRef self = s.ref();
  DA_EXPECTS(!self.empty());  // the name is in kSpanNames
  p = put(p, "{\"id\":\"");
  p = put_id(p, self);
  p = put(p, "\",\"name\":\"");
  p = put(p, self.name());
  p = put(p, "\",\"job\":");
  p = put_int(p, s.job);
  p = put(p, ",\"sub\":");
  p = put_int(p, s.sub);
  p = put(p, ",\"round\":");
  p = put_int(p, s.round);
  p = put(p, ",\"t0\":");
  p = doubles.put_double(p, s.t0);
  p = put(p, ",\"t1\":");
  p = doubles.put_double(p, s.t1);
  p = put(p, ",\"parent\":\"");
  p = put_id(p, s.parent);
  p = put(p, "\",\"tags\":{");
  for (std::size_t i = 0; i < s.tags.size(); ++i) {
    if (i != 0) *p++ = ',';
    *p++ = '"';
    p = put(p, s.tags[i].first);
    p = put(p, "\":");
    p = put_int(p, s.tags[i].second);
  }
  return put(p, "}}\n");
}

/// Appends the lines of `spans` to `out` in their current order.
void write_lines(std::string& out, std::span<const Span> spans) {
  std::size_t used = out.size();
  // Lines average ~160 bytes; the first sizing covers nearly every export.
  out.resize(used + spans.size() * 176 + kMaxLine);
  RenderedDoubles doubles;
  for (const Span& s : spans) {
    if (out.size() - used < kMaxLine) out.resize(2 * out.size());
    used = static_cast<std::size_t>(
        put_span_line(out.data() + used, s, doubles) - out.data());
  }
  out.resize(used);
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

std::optional<SpanRef> SpanRef::parse(std::string_view id) {
  std::size_t end = std::min(id.find_first_of(":.#"), id.size());
  const std::optional<SpanKind> kind = span_kind(id.substr(0, end));
  if (!kind) return std::nullopt;
  SpanRef ref;
  ref.kind = *kind;
  // Decode the optional :job, .sub and #round parts, then accept only an
  // id that renders back to itself (no sign, no leading zero, no junk).
  const auto part = [&](char mark, auto& out) {
    if (end == id.size() || id[end] != mark) return;
    const std::size_t next =
        std::min(id.find_first_of(":.#", end + 1), id.size());
    (void)parse_number(id.substr(end + 1, next - end - 1), out);
    end = next;
  };
  part(':', ref.job);
  part('.', ref.sub);
  part('#', ref.round);
  if (ref.id() != id) return std::nullopt;
  return ref;
}

SpanTags::SpanTags(std::initializer_list<value_type> tags) {
  for (const auto& [text, value] : tags) {
    const std::optional<SpanTagKey> key = SpanTagKey::find(text);
    DA_EXPECTS(key.has_value());
    add(*key, value);
  }
}

void SpanTags::overflow() {
  detail::contract_failure("precondition", "a span tag array has room",
                           __FILE__, __LINE__);
}

std::optional<std::int64_t> SpanTags::find(std::string_view key) const {
  for (std::size_t i = 0; i < size_; ++i) {
    if (kSpanTagKeys[keys_[i]] == key) return values_[i];
  }
  return std::nullopt;
}

void SpanTags::sort() {
  // Insertion sort on (key index, value) — index order is key order; a
  // span holds at most kCapacity tags, usually already in order.
  for (std::size_t i = 1; i < size_; ++i) {
    for (std::size_t j = i; j > 0 && item(j - 1) > item(j); --j) {
      std::swap(keys_[j - 1], keys_[j]);
      std::swap(values_[j - 1], values_[j]);
    }
  }
}

bool SpanTags::sorted() const {
  for (std::size_t i = 1; i < size_; ++i) {
    if (item(i - 1) > item(i)) return false;
  }
  return true;
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

void SpanLog::refuse(const char* condition) {
  detail::contract_failure("precondition", condition, __FILE__, __LINE__);
}

void SpanLog::clear() {
  records_.clear();
  tag_values_.clear();
  tag_keys_.clear();
}

Span SpanLog::span(std::size_t i) const {
  const Record& rec = records_[i];
  Span s;
  s.name = kSpanNames[static_cast<std::size_t>(rec.kind)];
  s.job = rec.job;
  s.sub = rec.sub;
  s.round = rec.round;
  s.t0 = rec.t0;
  s.t1 = rec.t1;
  // The service's tree: queue, inst and decide hang off their job; round
  // and recycle off their instance.
  switch (rec.kind) {
    case SpanKind::kQueue:
    case SpanKind::kInst:
    case SpanKind::kDecide:
      s.parent = {SpanKind::kJob, rec.job};
      break;
    case SpanKind::kRound:
    case SpanKind::kRecycle:
      s.parent = {SpanKind::kInst, rec.job, rec.sub};
      break;
    case SpanKind::kJob:
    case SpanKind::kNone:
      break;
  }
  // A whole array's worth where the pool has it: fixed-size copies are
  // a few moves, where copies sized to the span are calls. Entries past
  // `size_` are never read.
  if (rec.first_tag + SpanTags::kCapacity <= tag_keys_.size()) {
    std::memcpy(s.tags.keys_.data(), tag_keys_.data() + rec.first_tag,
                sizeof s.tags.keys_);
    std::memcpy(s.tags.values_.data(), tag_values_.data() + rec.first_tag,
                sizeof s.tags.values_);
  } else {
    for (std::size_t t = 0; t < rec.tags; ++t) {
      s.tags.keys_[t] = tag_keys_[rec.first_tag + t];
      s.tags.values_[t] = tag_values_[rec.first_tag + t];
    }
  }
  s.tags.size_ = rec.tags;
  return s;
}

std::vector<Span> SpanLog::spans() const {
  std::vector<Span> out;
  out.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) out.push_back(span(i));
  return out;
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
  if (!parent->empty()) {
    const std::optional<SpanRef> ref = SpanRef::parse(*parent);
    if (!ref) return fail(ParseKind::kBadParent, "parent is not a span id");
    s.parent = *ref;
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

std::vector<Span> merge_canonical(std::span<const std::span<const Span>> runs) {
  std::size_t total = 0;
  for (const std::span<const Span> run : runs) total += run.size();
  std::vector<SpanKey> keys;
  keys.reserve(total);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (std::size_t i = 0; i < runs[r].size(); ++i) {
      const Span& s = runs[r][i];
      keys.push_back(
          key_of(s.t0, s.job, s.sub, name_rank(s.name), s.round, r, i));
    }
  }
  return merge_keys(keys, [runs](const SpanKey& key) -> const Span& {
    return runs[key.run][key.index];
  });
}

std::vector<Span> merge_canonical(std::span<const SpanLog* const> logs,
                                  std::vector<SpanKey>& keys) {
  keys.clear();
  for (std::size_t r = 0; r < logs.size(); ++r) {
    const std::vector<SpanLog::Record>& records = logs[r]->records_;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const SpanLog::Record& rec = records[i];
      keys.push_back(key_of(rec.t0, rec.job, rec.sub,
                            static_cast<int>(rec.kind), rec.round, r, i));
    }
  }
  return merge_keys(keys, [logs](const SpanKey& key) {
    return logs[key.run]->span(key.index);
  });
}

void canonicalize(std::vector<Span>& spans) {
  const std::span<const Span> run(spans);
  spans = merge_canonical({&run, 1});
}

std::string spans_to_jsonl(const std::vector<Span>& spans) {
  std::string out;
  if (is_canonical(spans)) {
    write_lines(out, spans);
  } else {
    const std::span<const Span> run(spans);
    write_lines(out, merge_canonical({&run, 1}));
  }
  return out;
}

Parsed<std::vector<Span>> read_spans_jsonl(std::string_view text) {
  std::vector<Span> spans;
  TextCursor in(text);
  while (in.next_line()) {
    Parsed<Json> j = Json::parse(in.line());
    if (!j) return in.on_line(j.error());
    Parsed<Span> s = Span::from_json(*j);
    if (!s) return in.on_line(s.error());
    spans.push_back(*s);
  }
  // Re-exporting sorts spans and tags, so this one comparison also
  // rejects a file out of canonical order.
  const std::string canonical = spans_to_jsonl(spans);
  if (canonical != text) return not_canonical(text, canonical);
  return spans;
}

bool write_spans_jsonl(const std::vector<Span>& spans,
                       const std::string& file_path) {
  std::ofstream out(file_path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << spans_to_jsonl(spans);
  return static_cast<bool>(out);
}

}  // namespace da::obs
