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

/// Lifecycle rank: the index in kSpanNames (names outside it sort last).
int name_rank(std::string_view name) {
  const auto* it = std::find(kSpanNames.begin(), kSpanNames.end(), name);
  return static_cast<int>(it - kSpanNames.begin());
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

/// The rest of a span, so that the order is total: only spans with equal
/// identities and start times (duplicate ids) ever get this far.
std::strong_ordering compare_tail(const Span& a, const Span& b) {
  const auto tail = [](const Span& s) {
    return std::tuple(s.name, ordered(s.t1), s.parent.kind, s.parent.job,
                      s.parent.sub, s.parent.round);
  };
  if (const auto c = tail(a) <=> tail(b); c != 0) return c;
  return a.tags <=> b.tags;
}

bool before(const Span& a, const Span& b) {
  if (const auto c = compare_head(a, b); c != 0) return c < 0;
  return compare_tail(a, b) < 0;
}

bool ordered_spans(const std::vector<Span>& spans) {
  return std::is_sorted(spans.begin(), spans.end(), before);
}

/// True when `spans` is already in canonical export order with every
/// span's tags sorted — one O(n) pass.
bool is_canonical(const std::vector<Span>& spans) {
  return std::all_of(spans.begin(), spans.end(),
                     [](const Span& s) { return s.tags.sorted(); }) &&
         ordered_spans(spans);
}

/// Digits of a non-negative integer in canonical spelling (no sign, no
/// leading zero), parsed into `out`; false when absent or out of range.
template <typename Int>
bool parse_digits(std::string_view text, std::size_t& pos, Int& out) {
  const std::size_t start = pos;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
  if (pos == start || (text[start] == '0' && pos - start > 1)) return false;
  const auto [end, ec] =
      std::from_chars(text.data() + start, text.data() + pos, out);
  return ec == std::errc() && end == text.data() + pos;
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

/// A double as `Json::dump` renders it (`%.17g`; non-finite -> null).
char* put_double(char* p, double value) {
  if (!std::isfinite(value)) return put(p, "null");
  return std::to_chars(p, p + 24, value, std::chars_format::general, 17).ptr;
}

/// One export line, byte-identical to the compact `Json::dump` of the
/// record {id, name, job, sub, round, t0, t1, parent, tags}. Vocabulary
/// names need no escaping, so none is done.
char* put_span_line(char* p, const Span& s) {
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
  p = put_double(p, s.t0);
  p = put(p, ",\"t1\":");
  p = put_double(p, s.t1);
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
  for (const Span& s : spans) {
    if (out.size() - used < kMaxLine) out.resize(2 * out.size());
    used = static_cast<std::size_t>(
        put_span_line(out.data() + used, s) - out.data());
  }
  out.resize(used);
}

void set_error(SpanReadError* out, SpanReadError error) {
  if (out != nullptr) *out = error;
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
  return empty() ? std::string_view()
                 : kSpanNames[static_cast<std::size_t>(kind)];
}

std::string SpanRef::id() const {
  char buf[64];  // a vocabulary name and three integers
  return {buf, put_id(buf, *this)};
}

std::optional<SpanRef> SpanRef::parse(std::string_view id) {
  const std::size_t end = std::min(id.find_first_of(":.#"), id.size());
  const std::optional<SpanKind> kind = span_kind(id.substr(0, end));
  if (!kind) return std::nullopt;
  SpanRef ref;
  ref.kind = *kind;
  std::size_t pos = end;
  if (pos < id.size() && id[pos] == ':' && !parse_digits(id, ++pos, ref.job)) {
    return std::nullopt;
  }
  if (pos < id.size() && id[pos] == '.' && !parse_digits(id, ++pos, ref.sub)) {
    return std::nullopt;
  }
  if (pos < id.size() && id[pos] == '#' &&
      !parse_digits(id, ++pos, ref.round)) {
    return std::nullopt;
  }
  if (pos != id.size()) return std::nullopt;
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

SpanRef Span::ref() const {
  return {span_kind(name).value_or(SpanKind::kNone), job, sub, round};
}

const char* to_string(SpanReadError error) {
  static constexpr const char* kWhy[] = {
      "malformed JSON",
      "missing, mistyped or out-of-range field",
      "unknown span name",
      "more tags than a span holds",
      "unknown tag key",
      "id does not match the identity fields",
      "parent is not a span id",
      "not in canonical form or order"};
  const auto i = static_cast<std::size_t>(error);
  return i < std::size(kWhy) ? kWhy[i] : "?";
}

std::optional<Span> Span::from_json(const Json& j, SpanReadError* error) {
  const auto fail = [error](SpanReadError e) {
    set_error(error, e);
    return std::nullopt;
  };
  if (!j.is_object()) return fail(SpanReadError::kBadField);
  const auto integer = [&j](const char* key, std::int64_t lo,
                            std::int64_t hi) -> std::optional<std::int64_t> {
    const Json* v = j.find(key);
    if (v == nullptr || !v->is_integer()) return std::nullopt;
    if (v->as_int() < lo || v->as_int() > hi) return std::nullopt;
    return v->as_int();
  };
  const auto number = [&j](const char* key) -> std::optional<double> {
    const Json* v = j.find(key);
    if (v == nullptr || !v->is_number()) return std::nullopt;
    return v->as_double();
  };
  const auto string = [&j](const char* key) -> const std::string* {
    const Json* v = j.find(key);
    return v != nullptr && v->is_string() ? &v->as_string() : nullptr;
  };
  constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

  Span s;
  const std::string* name = string("name");
  if (name == nullptr) return fail(SpanReadError::kBadField);
  const std::optional<SpanKind> kind = span_kind(*name);
  if (!kind) return fail(SpanReadError::kUnknownName);
  s.name = kSpanNames[static_cast<std::size_t>(*kind)];
  const auto job = integer("job", std::numeric_limits<std::int64_t>::min(),
                           std::numeric_limits<std::int64_t>::max());
  const auto sub = integer("sub", kIntMin, kIntMax);
  const auto round = integer("round", kIntMin, kIntMax);
  const auto t0 = number("t0");
  const auto t1 = number("t1");
  if (!job || !sub || !round || !t0 || !t1) {
    return fail(SpanReadError::kBadField);
  }
  s.job = *job;
  s.sub = static_cast<int>(*sub);
  s.round = static_cast<int>(*round);
  s.t0 = *t0;
  s.t1 = *t1;
  const std::string* parent = string("parent");
  if (parent == nullptr) return fail(SpanReadError::kBadField);
  if (!parent->empty()) {
    const std::optional<SpanRef> ref = SpanRef::parse(*parent);
    if (!ref) return fail(SpanReadError::kBadParent);
    s.parent = *ref;
  }
  const Json* tags = j.find("tags");
  if (tags == nullptr || !tags->is_object()) {
    return fail(SpanReadError::kBadField);
  }
  if (tags->size() > SpanTags::kCapacity) {
    return fail(SpanReadError::kTooManyTags);
  }
  for (const auto& [key, value] : tags->as_object()) {
    const std::optional<SpanTagKey> known = SpanTagKey::find(key);
    if (!known) return fail(SpanReadError::kUnknownTagKey);
    if (!value.is_integer()) return fail(SpanReadError::kBadField);
    s.tags.add(*known, value.as_int());
  }
  // The emitted "id" field is derived; a mismatch means a hand-edited
  // file — reject it rather than silently re-derive.
  const std::string* id = string("id");
  if (id == nullptr) return fail(SpanReadError::kBadField);
  if (*id != s.id()) return fail(SpanReadError::kIdMismatch);
  return s;
}

void canonicalize(std::vector<Span>& spans) {
  for (Span& s : spans) s.tags.sort();
  if (!ordered_spans(spans)) std::sort(spans.begin(), spans.end(), before);
}

std::string spans_to_jsonl(const std::vector<Span>& spans) {
  std::string out;
  if (is_canonical(spans)) {
    write_lines(out, spans);
    return out;
  }
  std::vector<Span> sorted = spans;
  canonicalize(sorted);
  write_lines(out, sorted);
  return out;
}

std::optional<std::vector<Span>> read_spans_jsonl(const std::string& text,
                                                  std::string* error,
                                                  SpanReadError* kind) {
  std::vector<Span> spans;
  char rendered[kMaxLine];
  std::size_t line_no = 0;
  std::size_t start = 0;
  const auto fail = [&](SpanReadError e, const std::string& why) {
    set_error(kind, e);
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return std::nullopt;
  };
  while (start < text.size()) {
    ++line_no;
    const std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      return fail(SpanReadError::kNotCanonical, "missing final newline");
    }
    const std::string_view line(text.data() + start, end - start + 1);
    start = end + 1;
    std::string parse_error;
    const std::optional<Json> j =
        Json::parse(line.substr(0, line.size() - 1), &parse_error);
    if (!j) return fail(SpanReadError::kMalformedJson, parse_error);
    SpanReadError why = SpanReadError::kBadField;
    std::optional<Span> s = Span::from_json(*j, &why);
    if (!s) {
      return fail(why, std::string("not a span record: ") + to_string(why));
    }
    const char* last = put_span_line(rendered, *s);
    const std::string_view canonical(
        rendered, static_cast<std::size_t>(last - rendered));
    if (canonical != line || !s->tags.sorted()) {
      return fail(SpanReadError::kNotCanonical,
                  "not the canonical rendering of its span");
    }
    if (!spans.empty() && before(*s, spans.back())) {
      return fail(SpanReadError::kNotCanonical, "out of canonical order");
    }
    spans.push_back(*s);
  }
  return spans;
}

bool write_spans_jsonl(const std::vector<Span>& spans,
                       const std::string& file_path) {
  std::ofstream out(file_path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << spans_to_jsonl(spans);
  return static_cast<bool>(out);
}

#ifndef DA_METRICS_DISABLED

void SpanSink::ensure(int round) {
  const auto need = static_cast<std::size_t>(round) + 1;
  if (sends_.size() < need) {
    sends_.resize(need, 0);
    delivers_.resize(need, 0);
    resolves_.resize(need, 0);
  }
}

void SpanSink::note_send(int round, std::uint64_t n) {
  ensure(round);
  sends_[static_cast<std::size_t>(round)] += n;
}

void SpanSink::note_deliver(int round, std::uint64_t n) {
  ensure(round);
  delivers_[static_cast<std::size_t>(round)] += n;
}

void SpanSink::note_resolve(int round, std::uint64_t nodes) {
  ensure(round);
  resolves_[static_cast<std::size_t>(round)] += nodes;
}

void SpanSink::note_done(int total_rounds) { total_rounds_ = total_rounds; }

void SpanSink::clear() {
  sends_.clear();
  delivers_.clear();
  resolves_.clear();
  total_rounds_ = -1;
}

std::vector<Span> SpanSink::round_spans() const {
  // Phases of round r occupy [r, r+1) in round units: sends in the first
  // quarter, deliveries in the second, resolution in the back half. The
  // offsets are binary fractions, so the stamps are exact doubles.
  std::vector<Span> out;
  const std::size_t rounds = sends_.size();
  out.reserve(rounds * 3 + 1);
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto t = static_cast<double>(r);
    const int round = static_cast<int>(r);
    Span send;
    send.name = "send";
    send.round = round;
    send.t0 = t;
    send.t1 = t + 0.25;
    send.tags.add("messages", static_cast<std::int64_t>(sends_[r]));
    out.push_back(send);
    Span deliver;
    deliver.name = "deliver";
    deliver.round = round;
    deliver.t0 = t + 0.25;
    deliver.t1 = t + 0.5;
    deliver.parent = {SpanKind::kSend, -1, -1, round};
    deliver.tags.add("messages", static_cast<std::int64_t>(delivers_[r]));
    // Signed: negative means a duplicating network delivered extra copies.
    deliver.tags.add("dropped", static_cast<std::int64_t>(sends_[r]) -
                                    static_cast<std::int64_t>(delivers_[r]));
    out.push_back(deliver);
    Span resolve;
    resolve.name = "resolve";
    resolve.round = round;
    resolve.t0 = t + 0.5;
    resolve.t1 = t + 1.0;
    resolve.parent = {SpanKind::kDeliver, -1, -1, round};
    resolve.tags.add("nodes", static_cast<std::int64_t>(resolves_[r]));
    out.push_back(resolve);
  }
  if (total_rounds_ >= 0) {
    Span decide;
    decide.name = "decide";
    decide.round = total_rounds_;
    decide.t0 = static_cast<double>(total_rounds_);
    decide.t1 = decide.t0;
    out.push_back(decide);
  }
  return out;
}

#endif  // DA_METRICS_DISABLED

}  // namespace da::obs
