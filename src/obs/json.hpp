#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/parse.hpp"

namespace da::obs {

/// A minimal, dependency-free JSON document: build values, serialize with
/// `dump()`, and parse standard JSON back with `parse()`. Objects preserve
/// insertion order so emitted files are stable and diffable. Numbers keep
/// an integer/double distinction so counters round-trip exactly.
///
/// This is deliberately small — just enough for the bench `--json`
/// reports, the JSONL trace export and the `trace_inspect` CLI. It is not
/// a general-purpose JSON library (no comments, no NaN/Infinity: non-finite
/// doubles serialize as null). A double always dumps with a fraction or an
/// exponent (`1.0`, not `1`), so it parses back as a double.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : value_(b) {}                // NOLINT(google-explicit-constructor)
  Json(std::int64_t i) : value_(i) {}        // NOLINT(google-explicit-constructor)
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Json(std::uint64_t u);                     // NOLINT(google-explicit-constructor)
  Json(double d) : value_(d) {}              // NOLINT(google-explicit-constructor)
  Json(const char* s) : value_(std::string(s)) {}  // NOLINT
  Json(std::string s) : value_(std::move(s)) {}    // NOLINT
  Json(std::string_view s) : value_(std::string(s)) {}  // NOLINT

  [[nodiscard]] static Json object() { return Json(Object{}); }
  [[nodiscard]] static Json array() { return Json(Array{}); }

  [[nodiscard]] bool is_null() const { return holds<std::nullptr_t>(); }
  [[nodiscard]] bool is_bool() const { return holds<bool>(); }
  [[nodiscard]] bool is_number() const {
    return holds<std::int64_t>() || holds<double>();
  }
  [[nodiscard]] bool is_integer() const { return holds<std::int64_t>(); }
  [[nodiscard]] bool is_string() const { return holds<std::string>(); }
  [[nodiscard]] bool is_array() const { return holds<Array>(); }
  [[nodiscard]] bool is_object() const { return holds<Object>(); }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(value_);
  }
  [[nodiscard]] const Array& as_array() const {
    return std::get<Array>(value_);
  }
  [[nodiscard]] const Object& as_object() const {
    return std::get<Object>(value_);
  }

  /// Object: appends (or replaces) a key. Returns *this for chaining.
  Json& set(std::string key, Json value);

  /// Object: pointer to the value at `key`, or nullptr.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Array: appends an element.
  void push_back(Json value);

  /// Array/object element count; 0 for scalars.
  [[nodiscard]] std::size_t size() const;

  /// Array element access (unchecked beyond std::vector's).
  [[nodiscard]] const Json& at(std::size_t index) const {
    return as_array().at(index);
  }

  /// Serialize. `indent < 0`: compact one-line form; `indent >= 0`:
  /// pretty-printed with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parses one RFC 8259 document: numbers follow the grammar exactly (no
  /// `.5`, `2.`, `01`, `+1`) and must fit a double; strings reject raw
  /// control characters and lone surrogates. parse(dump(v)) == v.
  [[nodiscard]] static Parsed<Json> parse(std::string_view text);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  using Variant = std::variant<std::nullptr_t, bool, std::int64_t, double,
                               std::string, Array, Object>;

  explicit Json(Variant v) : value_(std::move(v)) {}

  template <typename T>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<T>(value_);
  }

  void dump_to(std::string& out, int indent, int depth) const;

  Variant value_;
};

/// Appends `text` JSON-escaped (quotes included) to `out`.
void json_escape(std::string_view text, std::string& out);

/// The integer member `key` of object `j`, when it exists and fits T.
template <typename T>
[[nodiscard]] bool int_member(const Json& j, std::string_view key, T& out) {
  const Json* v = j.find(key);
  const bool ok =
      v != nullptr && v->is_integer() && std::in_range<T>(v->as_int());
  if (ok) out = static_cast<T>(v->as_int());
  return ok;
}

}  // namespace da::obs
