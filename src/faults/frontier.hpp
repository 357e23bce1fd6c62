#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "sweep/sweep.hpp"
#include "util/parse.hpp"

namespace da::faults {

/// Serialized search frontier: the on-disk form of a suspended (or
/// finished) exhaustive behaviour sweep. A frontier carries the search's
/// identity (config, fault limit, seed, total ordinal space) plus one
/// line per shard with its scan cursor and cumulative counters, so a
/// killed sweep can resume in a later process — or be split across
/// several processes and merged back — and still produce an artifact
/// byte-identical to an uninterrupted run (docs/SEARCH.md §5).
///
/// Text format, version 2 (one record per line, space-separated):
///
///     da-frontier v2
///     config <n> <m> <u> <max_f> <seed> <space>
///     class <base> <size> <weight>
///     ...
///     shard <begin> <end> <cursor> <executions> <weighted> <hit|->
///     ...
///     end <shard_count>
///
/// One `class` record per subset-conjugacy class (docs/SEARCH.md §6)
/// names the representative segment the shards tile and how many
/// conjugate segments it stands for. `space` is the *full* unreduced
/// ordinal space, and the parser rejects any file whose class weights do
/// not reconcile exactly to it (sum of size*weight == space) — so a file
/// with no class records is rejected too. Any other version, v1
/// included, is refused as unsupported.
///
/// Shards are sorted by `begin`, must not overlap, must lie inside a
/// class range, and duplicates are rejected; the `end` trailer guards
/// against truncation. A file may hold a *subset* of the plan's shards
/// (the unit of distribution for split/merge) — only a frontier whose
/// shards cover every class's representative range can settle a verdict.
///
/// A `shard` record is one shard's sweep progress, the same record the
/// sweep resumes from and reports; its `<hit|->` field is `first_hit`.
using FrontierShard = sweep::ShardProgress;

/// One subset-conjugacy class: the representative segment's base
/// ordinal and size in the unreduced space, plus how many conjugate
/// segments it stands for. Weighted counters multiply by `weight`, so a
/// clean quotiented sweep still reconciles to the full space.
struct FrontierClass {
  std::uint64_t base = 0;
  std::uint64_t size = 0;
  std::uint64_t weight = 0;

  [[nodiscard]] std::uint64_t end() const { return base + size; }

  friend bool operator==(const FrontierClass&, const FrontierClass&) = default;
};

struct Frontier {
  Config config{};
  int max_f = -1;
  std::uint64_t seed = 1;
  std::uint64_t space = 0;  ///< full (unreduced) ordinal space, 4^k summed
  /// Subset-conjugacy classes, sorted by base, disjoint.
  std::vector<FrontierClass> classes;
  std::vector<FrontierShard> shards;  ///< sorted by begin, non-overlapping

  /// Smallest recorded hit ordinal across shards, or sweep::kNoHit.
  [[nodiscard]] std::uint64_t best_hit() const;

  /// True when the shards tile the union of the class representative
  /// ranges exactly, i.e. this frontier is the whole plan, not a split
  /// part.
  [[nodiscard]] bool covers_space() const;

  /// True when the verdict is final: the shards cover the space and every
  /// shard either scanned to its end or starts at/after the best hit
  /// (with no hit, that means every shard is complete).
  [[nodiscard]] bool settled() const;

  /// Discards schedule-dependent progress: once a best hit exists, every
  /// shard beginning after it is reset to untouched (those scans were
  /// speculative and depend on worker timing). Shards at or before the
  /// hit are fully deterministic, so a normalized settled frontier is
  /// byte-identical for any --jobs value and any interruption pattern.
  void normalize();

  friend bool operator==(const Frontier&, const Frontier&) = default;
};

/// Renders the frontier in its text format (classes and shards re-sorted
/// by base).
[[nodiscard]] std::string serialize_frontier(const Frontier& frontier);

/// Strict parser for the format: decodes the records, accepts the text
/// only if `serialize_frontier` gives its bytes back, then rejects an
/// invalid config, a fault limit above n, duplicate or overlapping
/// shards or classes, out-of-range cursors/hits, class weights that do
/// not reconcile to the space and shards outside every class range.
[[nodiscard]] Parsed<Frontier> parse_frontier(std::string_view text);

/// Splits a frontier into `parts` frontiers with the same header, dealing
/// shards round-robin (part i takes shards i, i+parts, ...). Parts with
/// no shards are still emitted, so merge(split(f)) == f.
[[nodiscard]] std::vector<Frontier> split_frontier(const Frontier& frontier,
                                                   std::size_t parts);

/// Merges split parts back together. All parts must agree on the header;
/// shard sets must be disjoint (a duplicate begin is an error, mirroring
/// the parser).
/// Errors carry kind kInconsistent and no position.
[[nodiscard]] Parsed<Frontier> merge_frontiers(
    const std::vector<Frontier>& parts);

/// Atomically writes the frontier to `path` (tmp file + rename), so a
/// kill mid-checkpoint never leaves a torn file. Returns false on I/O
/// failure.
bool save_frontier(const Frontier& frontier, const std::string& path);

/// Reads and parses a frontier file (kIo when it cannot be read).
[[nodiscard]] Parsed<Frontier> load_frontier(const std::string& path);

}  // namespace da::faults
