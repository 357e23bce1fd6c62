#include "util/parse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace da {

const char* to_string(ParseKind kind) {
  static constexpr const char* kNames[] = {
      "syntax", "bad-value", "unknown-name", "too-many-tags",
      "unknown-tag-key", "id-mismatch", "bad-parent", "not-canonical",
      "truncated", "inconsistent", "io"};
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kNames) ? kNames[i] : "?";
}

std::string ParseError::to_string() const {
  std::string out;
  if (line > 0) {
    out = "line " + std::to_string(line) + ", column " +
          std::to_string(column) + ": ";
  }
  return out + da::to_string(kind) + ": " + message;
}

ParseError error_at(std::string_view text, std::size_t offset,
                    ParseKind kind, std::string message) {
  offset = std::min(offset, text.size());
  const std::string_view before = text.substr(0, offset);
  const std::size_t line_start = before.rfind('\n') + 1;  // npos + 1 == 0
  return {kind,
          static_cast<std::size_t>(
              std::count(before.begin(), before.end(), '\n')) + 1,
          offset - line_start + 1, std::move(message)};
}

ParseError not_canonical(std::string_view text, std::string_view canonical) {
  std::size_t at = 0;  // the first differing byte
  while (at < text.size() && at < canonical.size() &&
         text[at] == canonical[at]) {
    ++at;
  }
  std::string message;
  if (at == canonical.size()) {
    message = "text continues past the writer's last line";
  } else if (at == text.size() && at + 1 == canonical.size()) {
    message = "missing final newline";
  } else {
    // The canonical line holding the first differing byte (npos + 1 == 0).
    const std::size_t from = at == 0 ? 0 : canonical.rfind('\n', at - 1) + 1;
    const std::size_t end = canonical.find('\n', at);
    message = "not the writer's bytes; expected `" +
              std::string(canonical.substr(from, end - from)) + "`";
  }
  return error_at(text, at, ParseKind::kNotCanonical, std::move(message));
}

bool TextCursor::next_line() {
  if (next_ >= text_.size()) return false;
  const std::size_t end = std::min(text_.find('\n', next_), text_.size());
  line_ = text_.substr(next_, end - next_);
  next_ = end + 1;
  ++line_no_;
  field_start_ = field_end_ = 0;
  return true;
}

std::string_view TextCursor::field() {
  field_start_ =
      std::min(line_.find_first_not_of(separators_, field_end_), line_.size());
  field_end_ =
      std::min(line_.find_first_of(separators_, field_start_), line_.size());
  return line_.substr(field_start_, field_end_ - field_start_);
}

ParseError TextCursor::error(ParseKind kind, std::string message) const {
  return {kind, line_no_, field_start_ + 1, std::move(message)};
}

ParseError TextCursor::on_line(ParseError inner) const {
  inner.line = line_no_;
  inner.column = std::max<std::size_t>(inner.column, 1);
  return inner;
}

ArgReader& ArgReader::flag(std::string_view name, bool& out) {
  return add(name, "", [&out](std::string_view) { return out = true; });
}

ArgReader& ArgReader::real(std::string_view name, double& out) {
  return add(name, "a finite positive number", [&out](std::string_view v) {
    double value = 0.0;
    const bool ok = parse_number(v, value) && std::isfinite(value) && value > 0;
    if (ok) out = value;
    return ok;
  });
}

ArgReader& ArgReader::text(std::string_view name, std::string& out) {
  return add(name, "a value",
             [&out](std::string_view v) { return (out = v, true); });
}

ArgReader& ArgReader::add(std::string_view name, std::string expects,
                          std::function<bool(std::string_view)> store) {
  options_.push_back({std::string(name), std::move(expects), std::move(store)});
  return *this;
}

std::vector<std::string_view> ArgReader::read(
    int argc, char** argv, int first, std::size_t max_positionals) const {
  std::vector<std::string_view> positionals;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      if (positionals.size() == max_positionals) {
        refuse("unexpected argument `" + std::string(arg) + "`");
      }
      positionals.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const auto option =
        std::find_if(options_.begin(), options_.end(),
                     [name](const Option& o) { return o.name == name; });
    if (option == options_.end()) refuse("unknown flag " + std::string(name));
    const bool inline_value = eq != std::string_view::npos;
    if (option->expects.empty()) {  // a switch
      if (inline_value) fail(name, "no value");
      option->store({});
      continue;
    }
    if (!inline_value && i + 1 == argc) fail(name, option->expects);
    if (!option->store(inline_value ? arg.substr(eq + 1) : argv[++i])) {
      fail(name, option->expects);
    }
  }
  return positionals;
}

void ArgReader::fail(std::string_view what, std::string_view expects) const {
  refuse(std::string(what) + " expects " + std::string(expects));
}

void ArgReader::refuse(std::string_view message) const {
  std::fprintf(stderr, "%s: %.*s\n%s\n", program_.c_str(),
               static_cast<int>(message.size()), message.data(),
               usage_.c_str());
  std::exit(2);
}

}  // namespace da
