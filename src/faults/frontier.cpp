#include "faults/frontier.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "obs/metrics.hpp"

namespace da::faults {

namespace {

constexpr std::string_view kMagic = "da-frontier";
constexpr std::string_view kVersion = "v2";

const obs::Counter& saves_counter() {
  static const obs::Counter c("search.frontier.saves");
  return c;
}
const obs::Counter& loads_counter() {
  static const obs::Counter c("search.frontier.loads");
  return c;
}

/// The kInconsistent error for record `i` of a list whose first record
/// is on line `first`; `first` 0 means there is no text (a merge).
ParseError inconsistent(std::size_t first, std::size_t i,
                        std::string message) {
  if (first == 0) return {ParseKind::kInconsistent, 0, 0, std::move(message)};
  return {ParseKind::kInconsistent, first + i, 1, std::move(message)};
}

/// Validates the class table, whose first record is on line `first`:
/// sorted by base, disjoint, in-range, and reconciling exactly to the
/// unreduced space (sum of size * weight == space — the corruption check
/// that catches dropped class lines, the whole table included).
std::optional<ParseError> check_classes(const Frontier& frontier,
                                        std::size_t first) {
  std::uint64_t prev_end = 0;
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < frontier.classes.size(); ++i) {
    const FrontierClass& c = frontier.classes[i];
    const auto fail = [&](const char* why) {
      return inconsistent(first, i, why);
    };
    if (c.size == 0 || c.weight == 0) return fail("invalid class record");
    if (c.base > frontier.space - c.size || c.size > frontier.space) {
      return fail("class beyond space");
    }
    if (i > 0 && c.base < prev_end) {
      return fail(c.base == frontier.classes[i - 1].base
                      ? "duplicate class"
                      : "overlapping classes");
    }
    prev_end = c.end();
    const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
    if (c.weight > (limit - covered) / c.size) {
      return fail("class weights overflow");
    }
    covered += c.size * c.weight;
  }
  if (covered != frontier.space) {
    return inconsistent(first, 0,
                        "class weights do not reconcile to the space");
  }
  return std::nullopt;
}

/// Validates shard geometry shared by the parser and the merger (first
/// shard record on line `first`): sorted, in-range, non-overlapping,
/// cursors and hits consistent, and each contained in some class's
/// representative range.
std::optional<ParseError> check_shards(const Frontier& frontier,
                                       std::size_t first) {
  std::uint64_t prev_end = 0;
  std::size_t cls = 0;
  for (std::size_t i = 0; i < frontier.shards.size(); ++i) {
    const FrontierShard& s = frontier.shards[i];
    const auto fail = [&](const char* why) {
      return inconsistent(first, i, why);
    };
    if (s.begin >= s.end) return fail("empty shard range");
    if (s.end > frontier.space) return fail("shard beyond space");
    if (i > 0 && s.begin < prev_end) {
      return fail(s.begin == frontier.shards[i - 1].begin
                      ? "duplicate shard"
                      : "overlapping shards");
    }
    prev_end = s.end;
    if (s.cursor < s.begin || s.cursor > s.end) {
      return fail("cursor out of range");
    }
    if (s.first_hit != sweep::kNoHit) {
      if (s.first_hit < s.begin || s.first_hit >= s.end) {
        return fail("hit outside shard");
      }
      if (s.cursor != s.end) return fail("hit with unsettled cursor");
    }
    // Shards and classes are both sorted, so one forward walk suffices.
    while (cls < frontier.classes.size() &&
           frontier.classes[cls].end() <= s.begin) {
      ++cls;
    }
    if (cls >= frontier.classes.size() ||
        s.begin < frontier.classes[cls].base ||
        s.end > frontier.classes[cls].end()) {
      return fail("shard outside class ranges");
    }
  }
  return std::nullopt;
}

/// `frontier` without its shards: the header every split part shares.
Frontier header_of(const Frontier& frontier) {
  Frontier header = frontier;
  header.shards.clear();
  return header;
}

}  // namespace

std::uint64_t Frontier::best_hit() const {
  std::uint64_t best = sweep::kNoHit;
  for (const FrontierShard& s : shards) best = std::min(best, s.first_hit);
  return best;
}

bool Frontier::covers_space() const {
  // The shards must tile exactly the union of the class representative
  // ranges (both lists are sorted by base).
  std::size_t j = 0;
  for (const FrontierClass& c : classes) {
    std::uint64_t next = c.base;
    while (next < c.end()) {
      if (j >= shards.size() || shards[j].begin != next ||
          shards[j].end > c.end()) {
        return false;
      }
      next = shards[j].end;
      ++j;
    }
  }
  return j == shards.size() && !classes.empty();
}

bool Frontier::settled() const {
  if (!covers_space()) return false;
  const std::uint64_t hit = best_hit();
  for (const FrontierShard& s : shards) {
    if (!s.settled() && s.cursor < hit) return false;
  }
  return true;
}

void Frontier::normalize() {
  const std::uint64_t hit = best_hit();
  if (hit == sweep::kNoHit) return;
  for (FrontierShard& s : shards) {
    if (s.begin > hit) s = FrontierShard{s.begin, s.end, s.begin};
  }
}

std::string serialize_frontier(const Frontier& frontier) {
  Frontier sorted = frontier;
  std::ranges::sort(sorted.classes, {}, &FrontierClass::base);
  std::ranges::sort(sorted.shards, {}, &FrontierShard::begin);
  std::ostringstream out;
  out << kMagic << ' ' << kVersion << '\n';
  out << "config " << sorted.config.n << ' ' << sorted.config.m << ' '
      << sorted.config.u << ' ' << sorted.max_f << ' ' << sorted.seed << ' '
      << sorted.space << '\n';
  for (const FrontierClass& c : sorted.classes) {
    out << "class " << c.base << ' ' << c.size << ' ' << c.weight << '\n';
  }
  for (const FrontierShard& s : sorted.shards) {
    out << "shard " << s.begin << ' ' << s.end << ' ' << s.cursor << ' '
        << s.executions << ' ' << s.weighted << ' ';
    if (s.first_hit == sweep::kNoHit) {
      out << '-';
    } else {
      out << s.first_hit;
    }
    out << '\n';
  }
  out << "end " << sorted.shards.size() << '\n';
  return out.str();
}

Parsed<Frontier> parse_frontier(std::string_view text) {
  TextCursor in(text);
  const auto truncated = [text](const char* why) {
    return error_at(text, text.size(), ParseKind::kTruncated, why);
  };
  if (!in.next_line()) return truncated("empty frontier");
  if (in.field() != kMagic) {
    return in.error(ParseKind::kUnknownName, "not a frontier file");
  }
  const std::string_view version = in.field();
  if (version != kVersion) {
    return in.error(ParseKind::kUnknownName,
                    "unsupported frontier version: " + std::string(version));
  }

  Frontier frontier;
  if (!in.next_line()) return truncated("no config record");
  if (in.field() != "config" || !in.number(frontier.config.n) ||
      !in.number(frontier.config.m) || !in.number(frontier.config.u) ||
      !in.number(frontier.max_f) || !in.number(frontier.seed) ||
      !in.number(frontier.space)) {
    return in.error(ParseKind::kSyntax, "malformed config record");
  }
  while (true) {
    if (!in.next_line()) return truncated("missing end record");
    const std::string_view tag = in.field();
    if (tag == "end") break;
    if (tag == "class") {
      FrontierClass& c = frontier.classes.emplace_back();
      if (!in.number(c.base) || !in.number(c.size) || !in.number(c.weight)) {
        return in.error(ParseKind::kSyntax, "malformed class record");
      }
    } else if (tag == "shard") {
      FrontierShard& s = frontier.shards.emplace_back();
      const bool counts = in.number(s.begin) && in.number(s.end) &&
                          in.number(s.cursor) && in.number(s.executions) &&
                          in.number(s.weighted);
      const std::string_view hit = counts ? in.field() : std::string_view();
      if (!counts || (hit != "-" && !parse_number(hit, s.first_hit))) {
        return in.error(ParseKind::kSyntax, "malformed shard record");
      }
    } else {
      return in.error(ParseKind::kUnknownName,
                      "unknown record: " + std::string(tag));
    }
  }
  // Everything the records leave unsaid — the `end` count, the version,
  // record order, spacing, number spelling, trailing text — is checked in
  // one step: the writer must give back the input bytes.
  const std::string canonical = serialize_frontier(frontier);
  if (canonical != text) return not_canonical(text, canonical);
  if (!frontier.config.valid()) {
    return ParseError{ParseKind::kBadValue, 2, 1, "invalid config"};
  }
  if (frontier.max_f > frontier.config.n) {
    return ParseError{ParseKind::kBadValue, 2, 1, "fault limit exceeds n"};
  }
  if (frontier.space == 0) {
    return ParseError{ParseKind::kBadValue, 2, 1, "empty search space"};
  }
  if (auto error = check_classes(frontier, 3)) return *std::move(error);
  if (auto error = check_shards(frontier, 3 + frontier.classes.size())) {
    return *std::move(error);
  }
  return frontier;
}

std::vector<Frontier> split_frontier(const Frontier& frontier,
                                     std::size_t parts) {
  // No part without a shard (beyond the one a shardless frontier needs),
  // so a huge `parts` costs nothing.
  const std::size_t count =
      std::max<std::size_t>(std::min(parts, frontier.shards.size()), 1);
  std::vector<Frontier> out(count, header_of(frontier));
  for (std::size_t i = 0; i < frontier.shards.size(); ++i) {
    out[i % out.size()].shards.push_back(frontier.shards[i]);
  }
  return out;
}

Parsed<Frontier> merge_frontiers(const std::vector<Frontier>& parts) {
  if (parts.empty()) return inconsistent(0, 0, "nothing to merge");
  const Frontier header = header_of(parts.front());
  Frontier merged = header;
  for (const Frontier& part : parts) {
    if (header_of(part) != header) {
      return inconsistent(0, 0, "header mismatch");
    }
    merged.shards.insert(merged.shards.end(), part.shards.begin(),
                         part.shards.end());
  }
  std::ranges::sort(merged.shards, {}, &FrontierShard::begin);
  if (auto error = check_shards(merged, 0)) return *std::move(error);
  return merged;
}

bool save_frontier(const Frontier& frontier, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << serialize_frontier(frontier);
    if (!out.flush()) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) return false;
  const obs::MetricsScope metrics_scope;
  saves_counter().add();
  return true;
}

Parsed<Frontier> load_frontier(const std::string& path) {
  std::ifstream in(path);
  if (!in) return ParseError{ParseKind::kIo, 0, 0, "cannot open " + path};
  std::ostringstream text;
  text << in.rdbuf();
  Parsed<Frontier> out = parse_frontier(text.str());
  if (out) {
    const obs::MetricsScope metrics_scope;
    loads_counter().add();
  }
  return out;
}

}  // namespace da::faults
