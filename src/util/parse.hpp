#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace da {

/// The one parser idiom behind every external text the project reads —
/// FaultPlan, `da-frontier`, obs::Json, trace JSONL, span JSONL and the
/// command lines of every example and bench: a reader returns a
/// `Parsed<T>`, which is the decoded value or the typed `ParseError` that
/// rejected the input (a command line's `ArgReader` exits 2 instead), and
/// reads numbers only through `parse_number` (std::from_chars over one
/// whole field).

/// Why a reader rejected its input.
enum class ParseKind : std::uint8_t {
  kSyntax,         // not the format's grammar: token, record or number shape
  kBadValue,       // a value is missing, mistyped or out of range
  kUnknownName,    // a version, directive, record, key or name not known
  kTooManyTags,    // more span tags than a span holds
  kUnknownTagKey,  // a span tag key outside the vocabulary
  kIdMismatch,     // a span `id` that is not the id of its identity fields
  kBadParent,      // a span `parent` that is neither "" nor a span id
  kNotCanonical,   // decodes, but is not the writer's bytes or order
  kTruncated,      // the text ends before the format's terminator
  kInconsistent,   // records that decode but contradict each other
  kIo,             // the file could not be read
};

/// Stable lower-case spelling ("syntax", "not-canonical", ...).
[[nodiscard]] const char* to_string(ParseKind kind);

/// A rejected input. `line` and `column` are 1-based and point at the
/// offending byte; both are 0 when the error has no place in a text (a
/// file that cannot be opened, a merge of two parsed frontiers).
struct ParseError {
  ParseKind kind = ParseKind::kSyntax;
  std::size_t line = 0;
  std::size_t column = 0;
  std::string message;

  /// "line L, column C: kind: message" (no position when line is 0).
  [[nodiscard]] std::string to_string() const;
};

/// A decoded value or the error that rejected the input. Reading the
/// side it does not hold throws std::bad_variant_access.
template <typename T>
class Parsed {
 public:
  Parsed(T value) : state_(std::move(value)) {}          // NOLINT
  Parsed(ParseError error) : state_(std::move(error)) {}  // NOLINT

  [[nodiscard]] bool has_value() const { return state_.index() == 0; }
  explicit operator bool() const { return has_value(); }
  [[nodiscard]] T& operator*() { return std::get<0>(state_); }
  [[nodiscard]] const T& operator*() const { return std::get<0>(state_); }
  [[nodiscard]] T* operator->() { return &**this; }
  [[nodiscard]] const T* operator->() const { return &**this; }
  [[nodiscard]] const ParseError& error() const { return std::get<1>(state_); }

 private:
  std::variant<T, ParseError> state_;
};

/// Parses all of `text` as one number of type T with std::from_chars.
/// Fails — leaving `out` untouched — on an empty text, a partial parse
/// (`16-`), a sign or prefix from_chars does not read (`+4`, `0x1`), or
/// a value out of T's range.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [last, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || last != end || text.empty()) return false;
  out = value;
  return true;
}

/// `parse_number`, failing also (with `out` untouched) outside [min, max].
template <typename T>
[[nodiscard]] bool parse_number_in(std::string_view text, T min, T max,
                                   T& out) {
  T value{};
  if (!parse_number(text, value) || value < min || value > max) return false;
  out = value;
  return true;
}

/// An error at byte `offset` of `text`, with its line and column.
[[nodiscard]] ParseError error_at(std::string_view text, std::size_t offset,
                                  ParseKind kind, std::string message);

/// The kNotCanonical error for a text that decoded but whose canonical
/// rendering `canonical` differs: it points at the first differing byte.
[[nodiscard]] ParseError not_canonical(std::string_view text,
                                       std::string_view canonical);

/// Walks a text one line at a time and each line one field at a time,
/// remembering where the last line and field began, so that every reader
/// reports a ParseError at the byte it rejected.
class TextCursor {
 public:
  /// Fields are separated by runs of any byte in `separators`.
  explicit TextCursor(std::string_view text,
                      std::string_view separators = " ")
      : text_(text), separators_(separators) {}

  /// Moves to the next line; false once the text is used up. A last line
  /// without its '\n' still counts.
  bool next_line();

  /// The current line, without its '\n'.
  [[nodiscard]] std::string_view line() const { return line_; }

  /// The next field of the current line; empty when none is left.
  std::string_view field();

  /// The next field as one whole number of type T (see parse_number).
  template <typename T>
  bool number(T& out) {
    return parse_number(field(), out);
  }

  /// An error at the last field read (the line start before any field).
  [[nodiscard]] ParseError error(ParseKind kind, std::string message) const;

  /// `inner`, an error from decoding the current line on its own (a Json
  /// parse or a record check), placed on this line; its column is kept.
  [[nodiscard]] ParseError on_line(ParseError inner) const;

 private:
  std::string_view text_;
  std::string_view separators_;
  std::size_t next_ = 0;         // offset of the next line in text_
  std::string_view line_;
  std::size_t line_no_ = 0;
  std::size_t field_end_ = 0;    // offset in line_ past the last field
  std::size_t field_start_ = 0;  // offset in line_ of the last field
};

/// The most workers any `--jobs` flag or JOBS positional accepts (0 asks
/// for one per core), so a typo cannot start tens of thousands of threads.
inline constexpr int kMaxJobs = 256;

/// Reads a command line against declared flags: `--name value` or
/// `--name=value` for a valued flag, `--name` alone for a switch. Every
/// argument that does not start with `--` is a positional, so `-1` can be
/// one. A repeated flag keeps its last value. Any refusal — an unknown
/// flag, a missing value, a value outside its kind, a surplus positional —
/// prints "<program>: <flag> expects <what>" (or the refusal) and the
/// usage text on stderr and exits 2, so no command line reaches a
/// contract check.
///
///   ArgReader args("da_cli", kUsage);
///   args.integer("--n", n, 2, 64).flag("--trace", trace);
///   args.read(argc, argv);
class ArgReader {
 public:
  ArgReader(std::string program, std::string usage)
      : program_(std::move(program)), usage_(std::move(usage)) {}

  /// A bare switch: its presence sets `out`.
  ArgReader& flag(std::string_view name, bool& out);

  /// An integer of type T in [min, max], read whole (see parse_number).
  template <typename T>
  ArgReader& integer(std::string_view name, T& out, T min, T max) {
    return add(name, range(min, max), [&out, min, max](std::string_view v) {
      return parse_number_in(v, min, max, out);
    });
  }

  /// A finite positive real: `nan`, `inf`, 0 and negatives are refused.
  ArgReader& real(std::string_view name, double& out);

  template <typename T>
  using Choices = std::initializer_list<
      std::pair<std::string_view, std::type_identity_t<T>>>;

  /// One of the names in `table`; `out` gets the value paired with it.
  template <typename T>
  ArgReader& choice(std::string_view name, T& out, Choices<T> table) {
    std::string names;
    for (const auto& [key, value] : table) {
      names += (names.empty() ? "" : "|") + std::string(key);
    }
    return add(name, "one of " + names,
               [&out, entries = std::vector(table)](std::string_view v) {
                 for (const auto& [key, value] : entries) {
                   if (key == v) return (out = value, true);
                 }
                 return false;
               });
  }

  /// A path or free text, taken as given.
  ArgReader& text(std::string_view name, std::string& out);

  /// Reads argv[first, argc), storing every flag, and returns the
  /// positionals in order, each a whole (NUL-terminated) argv entry;
  /// more than `max_positionals` is a refusal.
  std::vector<std::string_view> read(int argc, char** argv, int first = 1,
                                     std::size_t max_positionals = 0) const;

  /// `text` — a positional or a list item — read whole as a T in
  /// [min, max]; a refusal names `what`.
  template <typename T>
  [[nodiscard]] T number(std::string_view what, std::string_view text, T min,
                         T max) const {
    T out{};
    if (!parse_number_in(text, min, max, out)) fail(what, range(min, max));
    return out;
  }

  /// Prints "<program>: <what> expects <expects>" and the usage; exits 2.
  [[noreturn]] void fail(std::string_view what,
                         std::string_view expects) const;

  /// Prints "<program>: <message>" and the usage; exits 2.
  [[noreturn]] void refuse(std::string_view message) const;

 private:
  struct Option {
    std::string name;
    std::string expects;  // empty for a switch
    std::function<bool(std::string_view)> store;
  };

  template <typename T>
  static std::string range(T min, T max) {
    return "an integer in [" + std::to_string(min) + ", " +
           std::to_string(max) + "]";
  }
  ArgReader& add(std::string_view name, std::string expects,
                 std::function<bool(std::string_view)> store);

  std::string program_;
  std::string usage_;
  std::vector<Option> options_;
};

}  // namespace da
