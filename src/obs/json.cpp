#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>

namespace da::obs {

Json::Json(std::uint64_t u) {
  if (u <= static_cast<std::uint64_t>(
               std::numeric_limits<std::int64_t>::max())) {
    value_ = static_cast<std::int64_t>(u);
  } else {
    value_ = static_cast<double>(u);
  }
}

std::int64_t Json::as_int() const {
  if (holds<std::int64_t>()) return std::get<std::int64_t>(value_);
  return static_cast<std::int64_t>(std::get<double>(value_));
}

double Json::as_double() const {
  if (holds<double>()) return std::get<double>(value_);
  return static_cast<double>(std::get<std::int64_t>(value_));
}

Json& Json::set(std::string key, Json value) {
  if (!is_object()) value_ = Object{};
  Object& obj = std::get<Object>(value_);
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::push_back(Json value) {
  if (!is_array()) value_ = Array{};
  std::get<Array>(value_).push_back(std::move(value));
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

void json_escape(std::string_view text, std::string& out) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

/// `%.17g` (exact for every double), plus ".0" when that reads as an
/// integer, so a parsed document dumps back to an equal one.
void append_double(double d, std::string& out) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[32];
  char* end =
      std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17)
          .ptr;
  out.append(buf, end);
  if (std::find_if(buf, end, [](char c) { return c == '.' || c == 'e'; }) ==
      end) {
    out += ".0";
  }
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_integer()) {
    out += std::to_string(std::get<std::int64_t>(value_));
  } else if (is_number()) {
    append_double(std::get<double>(value_), out);
  } else if (is_string()) {
    json_escape(as_string(), out);
  } else if (is_array()) {
    const Array& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i != 0) out += ',';
      append_newline_indent(out, indent, depth + 1);
      arr[i].dump_to(out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += ']';
  } else {
    const Object& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) out += ',';
      first = false;
      append_newline_indent(out, indent, depth + 1);
      json_escape(key, out);
      out += indent < 0 ? ":" : ": ";
      value.dump_to(out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ------------------------------------------------------------- parsing --

namespace {

/// Nesting deeper than this is rejected rather than recursed into.
constexpr int kMaxDepth = 512;

/// RFC 8259 recursive-descent parser. The first error stops it: members
/// return nullopt and `error_` holds the ParseError.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Parsed<Json> run() {
    std::optional<Json> value = parse_value(0);
    if (value) {
      skip_ws();
      if (pos_ == text_.size()) return *std::move(value);
      fail("trailing characters after JSON value");
    }
    return *std::move(error_);
  }

 private:
  std::nullopt_t fail(const char* message,
                      ParseKind kind = ParseKind::kSyntax) {
    if (!error_) error_ = error_at(text_, pos_, kind, message);
    return std::nullopt;
  }

  /// Moves past any bytes in `set`; true if there was at least one.
  bool skip(std::string_view set) {
    const std::size_t start = pos_;
    pos_ = std::min(text_.find_first_not_of(set, pos_), text_.size());
    return pos_ > start;
  }
  void skip_ws() { skip(" \t\n\r"); }
  [[nodiscard]] bool digits() { return skip("0123456789"); }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  [[nodiscard]] bool consume(char c) { return literal({&c, 1}); }

  std::optional<Json> parse_value(int depth) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    if (depth > kMaxDepth) return fail("nesting too deep");
    const char c = text_[pos_];
    if (literal("null")) return Json(nullptr);
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    if (c == '"') {
      std::optional<std::string> s = parse_string();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (c == '[') return parse_array(depth);
    if (c == '{') return parse_object(depth);
    if (c == '-' || (c >= '0' && c <= '9')) return number();
    return fail("unexpected character");
  }

  /// The four hex digits of a \u escape.
  std::optional<unsigned> hex4() {
    unsigned code = 0;
    const char* first = text_.data() + pos_;
    if (pos_ + 4 > text_.size() ||
        std::from_chars(first, first + 4, code, 16).ptr != first + 4) {
      return fail("invalid \\u escape");
    }
    pos_ += 4;
    return code;
  }

  /// The code point of a \u escape (after the `\u`), joining a UTF-16
  /// surrogate pair; a lone surrogate is an error.
  std::optional<unsigned> code_point() {
    const std::optional<unsigned> high = hex4();
    if (!high || *high < 0xD800 || *high > 0xDFFF) return high;
    std::optional<unsigned> low;
    if (*high > 0xDBFF || !literal("\\u") || !(low = hex4()) ||
        *low < 0xDC00 || *low > 0xDFFF) {
      return fail("lone surrogate", ParseKind::kBadValue);
    }
    return 0x10000 + ((*high - 0xD800) << 10) + (*low - 0xDC00);
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return fail("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      switch (text_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          const std::optional<unsigned> code = code_point();
          if (!code) return std::nullopt;
          append_utf8(*code, out);
          break;
        }
        default:
          --pos_;
          return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  /// UTF-8: a lead byte, then 6 bits per continuation byte.
  static void append_utf8(unsigned code, std::string& out) {
    static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int extra =
        code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
    out += static_cast<char>(kLead[extra] | code >> (6 * extra));
    for (int i = extra - 1; i >= 0; --i) {
      out += static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F));
    }
  }

  /// number = [ "-" ] ( "0" / digit1-9 *digit ) [ "." 1*digit ]
  ///          [ ( "e" / "E" ) [ "-" / "+" ] 1*digit ]
  /// An integer that fits int64 stays one; anything else is a double,
  /// and a value a double cannot hold is an error.
  std::optional<Json> number() {
    const std::size_t start = pos_;
    (void)consume('-');
    if (!consume('0') && !digits()) return fail("invalid number");
    bool integral = true;
    if (consume('.')) {
      integral = false;
      if (!digits()) return fail("invalid number");
    }
    if (consume('e') || consume('E')) {
      integral = false;
      if (!consume('+')) (void)consume('-');
      if (!digits()) return fail("invalid number");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    std::int64_t i = 0;
    if (integral && parse_number(token, i)) return Json(i);
    double d = 0.0;
    if (!parse_number(token, d)) {
      pos_ = start;
      return fail("number out of range", ParseKind::kBadValue);
    }
    return Json(d);
  }

  std::optional<Json> parse_array(int depth) {
    (void)consume('[');
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      std::optional<Json> value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      arr.push_back(std::move(*value));
      skip_ws();
      if (consume(']')) return arr;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  std::optional<Json> parse_object(int depth) {
    (void)consume('{');
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      std::optional<std::string> key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      std::optional<Json> value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      obj.set(std::move(*key), std::move(*value));
      skip_ws();
      if (consume('}')) return obj;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::optional<ParseError> error_;
};

}  // namespace

Parsed<Json> Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace da::obs
