// Serialized search frontiers (faults/frontier.hpp): the v2 text format
// round-trips exactly, the parser rejects every class of damage a crashed
// or concatenated file can exhibit, split/merge is a lossless partition,
// and — the tentpole guarantee — a behaviour sweep killed at *any*
// checkpoint boundary and resumed under *any* --jobs value converges to a
// byte-identical normalized artifact.

#include "faults/frontier.hpp"

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/behavior_search.hpp"
#include "sweep/sweep.hpp"

namespace da {
namespace {

constexpr Config kViolating{.n = 4, .m = 1, .u = 2};  // hit at ordinal 129
constexpr Config kClean{.n = 4, .m = 1, .u = 1};      // exhaustively clean

/// The byte-comparable artifact: the normalized serialized frontier.
std::string artifact_of(faults::Frontier frontier) {
  frontier.normalize();
  return serialize_frontier(frontier);
}

/// Runs a fresh frontier for `config` to settlement in one shot.
faults::Frontier settle(const Config& config, int jobs = 1) {
  faults::Frontier frontier = faults::init_behavior_frontier(config);
  faults::FrontierRunOptions options;
  options.jobs = jobs;
  const faults::FrontierRun run =
      faults::run_behavior_frontier(frontier, options);
  EXPECT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(run.settled);
  return frontier;
}

// ------------------------------------------------------------ the format

TEST(Frontier, SerializeParseRoundTrip) {
  const faults::Frontier fresh = faults::init_behavior_frontier(kViolating);
  ASSERT_GT(fresh.shards.size(), 1u);
  ASSERT_FALSE(fresh.classes.empty());
  EXPECT_TRUE(fresh.covers_space());
  EXPECT_FALSE(fresh.settled());
  EXPECT_EQ(fresh.best_hit(), sweep::kNoHit);

  const std::string text = serialize_frontier(fresh);
  EXPECT_EQ(text.rfind("da-frontier v2\n", 0), 0u);
  const Parsed<faults::Frontier> parsed = faults::parse_frontier(text);
  ASSERT_TRUE(parsed) << parsed.error().to_string();
  EXPECT_EQ(serialize_frontier(*parsed), text);
  EXPECT_EQ(parsed->space, fresh.space);
  EXPECT_EQ(parsed->shards.size(), fresh.shards.size());
  EXPECT_EQ(parsed->classes.size(), fresh.classes.size());

  // A settled frontier (cursors, counters and a hit populated) must
  // round-trip just as exactly.
  const faults::Frontier done = settle(kViolating);
  ASSERT_NE(done.best_hit(), sweep::kNoHit);
  const std::string done_text = serialize_frontier(done);
  const Parsed<faults::Frontier> reparsed = faults::parse_frontier(done_text);
  ASSERT_TRUE(reparsed) << reparsed.error().to_string();
  EXPECT_EQ(serialize_frontier(*reparsed), done_text);
  EXPECT_EQ(reparsed->best_hit(), done.best_hit());
}

TEST(Frontier, ParserRejectsDamage) {
  const std::string good =
      serialize_frontier(faults::init_behavior_frontier(kViolating));

  const auto error_of = [](const std::string& text) {
    const Parsed<faults::Frontier> parsed = faults::parse_frontier(text);
    EXPECT_FALSE(parsed.has_value()) << "accepted: " << text.substr(0, 60);
    return parsed ? ParseError{} : parsed.error();
  };
  // "kind: message" of the error, for the cases that pin both.
  const auto why = [&error_of](const std::string& text) {
    const ParseError e = error_of(text);
    return std::string(to_string(e.kind)) + ": " + e.message;
  };

  EXPECT_EQ(why(""), "truncated: empty frontier");
  EXPECT_EQ(why("something else\n"), "unknown-name: not a frontier file");
  EXPECT_EQ(why("da-frontier v3\nconfig 4 1 2 2 1 3952\nend 0\n"),
            "unknown-name: unsupported frontier version: v3");
  // v1, the unquotiented format of earlier releases, is refused the same
  // way, on its header line.
  const std::string v1 =
      "da-frontier v1\nconfig 4 1 1 1 1 112\nshard 0 64 0 0 0 -\nend 1\n";
  EXPECT_EQ(why(v1), "unknown-name: unsupported frontier version: v1");
  EXPECT_EQ(error_of(v1).line, 1u);
  EXPECT_EQ(why("da-frontier v2\n"), "truncated: no config record");
  EXPECT_EQ(why("da-frontier v2\nconfig 4 x\nend 0\n"),
            "syntax: malformed config record");
  EXPECT_EQ(why("da-frontier v2\nconfig 0 0 0 -1 1 5\nend 0\n"),
            "bad-value: invalid config");
  EXPECT_EQ(why("da-frontier v2\nconfig 4 1 2 2 1 0\nend 0\n"),
            "bad-value: empty search space");
  EXPECT_EQ(why("da-frontier v2\nconfig 4 1 2 9 1 3952\nend 0\n"),
            "bad-value: fault limit exceeds n");
  EXPECT_EQ(error_of("da-frontier v2\nconfig 4 1 2 9 1 3952\nend 0\n").line,
            2u);

  // Truncation: chop the `end` trailer, then miscount it.
  const std::string no_end = good.substr(0, good.rfind("end "));
  EXPECT_EQ(why(no_end), "truncated: missing end record");
  EXPECT_EQ(error_of(no_end + "end 1\n").kind, ParseKind::kNotCanonical);

  // Shard-level damage, spliced into a minimal frontier whose one class
  // (16 ordinals standing for 247 conjugates: 16*247 = 3952) holds the
  // shards.
  const std::string header =
      "da-frontier v2\nconfig 4 1 2 2 1 3952\nclass 0 16 247\n";
  const auto with_shards = [&](const std::string& shards, int count) {
    return header + shards + "end " + std::to_string(count) + "\n";
  };
  const auto inconsistent = [&why](const std::string& text) {
    const std::string kind_and_message = why(text);
    EXPECT_EQ(kind_and_message.rfind("inconsistent: ", 0), 0u)
        << kind_and_message;
    return kind_and_message.substr(std::string("inconsistent: ").size());
  };
  EXPECT_EQ(inconsistent(with_shards("shard 0 0 0 0 0 -\n", 1)),
            "empty shard range");
  EXPECT_EQ(inconsistent(with_shards("shard 0 9999 0 0 0 -\n", 1)),
            "shard beyond space");
  EXPECT_EQ(inconsistent(
                with_shards("shard 0 16 0 0 0 -\nshard 0 16 0 0 0 -\n", 2)),
            "duplicate shard");
  EXPECT_EQ(inconsistent(
                with_shards("shard 0 16 0 0 0 -\nshard 8 32 8 0 0 -\n", 2)),
            "overlapping shards");
  EXPECT_EQ(error_of(with_shards("shard 0 16 0 0 0 -\nshard 8 32 8 0 0 -\n", 2))
                .line,
            5u);
  EXPECT_EQ(inconsistent(with_shards("shard 0 16 20 0 0 -\n", 1)),
            "cursor out of range");
  EXPECT_EQ(inconsistent(with_shards("shard 0 16 16 16 16 99\n", 1)),
            "hit outside shard");
  EXPECT_EQ(inconsistent(with_shards("shard 0 16 8 8 8 3\n", 1)),
            "hit with unsettled cursor");
  EXPECT_EQ(why(with_shards("shard 0 16 16 16 16 bogus\n", 1)),
            "syntax: malformed shard record");
  EXPECT_EQ(why(with_shards("record 0 16 0 0 0 -\n", 1)),
            "unknown-name: unknown record: record");

  // Torn or re-spelled files: each decodes, but only the writer's exact
  // bytes are accepted. The error points at the first differing byte.
  const std::string shard = "shard 0 16 16 16 16 -\n";
  const auto at = [&error_of](const std::string& text) {
    const ParseError e = error_of(text);
    EXPECT_EQ(e.kind, ParseKind::kNotCanonical) << e.to_string();
    return std::pair(e.line, e.column);
  };
  EXPECT_EQ(at(with_shards(shard, 1) + shard), std::pair(6ul, 1ul));
  EXPECT_EQ(at(with_shards("shard 0 16 16 16 16 - junk\n", 1)),
            std::pair(4ul, 22ul));
  EXPECT_EQ(at("da-frontier v2\nconfig 4 1 2 2 1 3952 \nclass 0 16 247\n"
               "end 0\n"),
            std::pair(2ul, 22ul));
  EXPECT_EQ(at("da-frontier v2\nconfig 04 1 2 2 1 3952\nend 0\n"),
            std::pair(2ul, 8ul));
  const std::size_t before_newline = header.size() + shard.size() + 5;
  EXPECT_EQ(at(with_shards(shard, 1).substr(0, before_newline)),
            std::pair(5ul, 6ul));
  EXPECT_EQ(error_of(with_shards("shard 0 16 16 16 16-\n", 1)).kind,
            ParseKind::kSyntax);
  EXPECT_EQ(error_of("da-frontier v2\nconfig +4 1 2 2 1 3952\nend 0\n").kind,
            ParseKind::kSyntax);
  EXPECT_EQ(error_of(good + "\n").kind, ParseKind::kNotCanonical);

  // Class-table damage, spliced after the config record.
  const std::string v2_header = "da-frontier v2\nconfig 4 1 2 2 1 3952\n";
  const auto v2_with = [&](const std::string& body, int count) {
    return v2_header + body + "end " + std::to_string(count) + "\n";
  };
  // A file with no class records is byte-canonical, but covers nothing.
  EXPECT_EQ(inconsistent(v2_with("", 0)),
            "class weights do not reconcile to the space");
  EXPECT_EQ(inconsistent(v2_with("shard 0 16 0 0 0 -\n", 1)),
            "class weights do not reconcile to the space");
  EXPECT_EQ(why(v2_with("class 0 16 x\n", 0)),
            "syntax: malformed class record");
  EXPECT_EQ(at(v2_with("class 0 16 247\nshard 0 16 0 0 0 -\n"
                       "class 0 16 247\n",
                       1)),
            std::pair(4ul, 1ul));
  EXPECT_EQ(inconsistent(v2_with("class 0 0 247\n", 0)),
            "invalid class record");
  EXPECT_EQ(inconsistent(v2_with("class 0 9999 1\n", 0)),
            "class beyond space");
  EXPECT_EQ(inconsistent(v2_with("class 0 16 1\nclass 0 16 246\n", 0)),
            "duplicate class");
  EXPECT_EQ(inconsistent(v2_with("class 0 16 1\nclass 8 16 246\n", 0)),
            "overlapping classes");
  EXPECT_EQ(inconsistent(v2_with("class 0 16 246\n", 0)),
            "class weights do not reconcile to the space");
  EXPECT_EQ(inconsistent(v2_with("class 0 16 1152921504606846976\n", 0)),
            "class weights overflow");
  EXPECT_EQ(
      inconsistent(v2_with("class 0 16 247\nshard 16 32 16 0 0 -\n", 1)),
      "shard outside class ranges");
}

TEST(Frontier, SplitMergeIsLossless) {
  const faults::Frontier whole = settle(kViolating);
  const std::string reference = serialize_frontier(whole);

  for (const std::size_t parts : {std::size_t{1}, std::size_t{3},
                                  whole.shards.size() + 2}) {
    const std::vector<faults::Frontier> split =
        faults::split_frontier(whole, parts);
    ASSERT_EQ(split.size(), parts);
    std::size_t shard_total = 0;
    for (const faults::Frontier& part : split) {
      shard_total += part.shards.size();
      if (part.shards.size() < whole.shards.size()) {
        EXPECT_FALSE(part.covers_space());
        EXPECT_FALSE(part.settled()) << "split parts must not settle alone";
      }
    }
    EXPECT_EQ(shard_total, whole.shards.size());
    const Parsed<faults::Frontier> merged = faults::merge_frontiers(split);
    ASSERT_TRUE(merged) << merged.error().to_string();
    EXPECT_EQ(serialize_frontier(*merged), reference);
  }

  // A part merged twice duplicates its shards — same rejection as the
  // parser's.
  const std::vector<faults::Frontier> split = faults::split_frontier(whole, 2);
  const Parsed<faults::Frontier> dup =
      faults::merge_frontiers({split[0], split[1], split[0]});
  ASSERT_FALSE(dup);
  EXPECT_EQ(dup.error().to_string(), "inconsistent: duplicate shard");

  // Parts from different searches must not merge.
  faults::Frontier foreign = faults::init_behavior_frontier(kClean);
  const Parsed<faults::Frontier> mixed =
      faults::merge_frontiers({whole, foreign});
  ASSERT_FALSE(mixed);
  EXPECT_EQ(mixed.error().message, "header mismatch");
}

TEST(Frontier, SaveLoadAtomicRoundTrip) {
  const faults::Frontier frontier = faults::init_behavior_frontier(kClean);
  const std::string path =
      testing::TempDir() + "da_frontier_roundtrip.frontier";
  ASSERT_TRUE(faults::save_frontier(frontier, path));
  const Parsed<faults::Frontier> loaded = faults::load_frontier(path);
  ASSERT_TRUE(loaded) << loaded.error().to_string();
  EXPECT_EQ(serialize_frontier(*loaded), serialize_frontier(frontier));
  std::remove(path.c_str());

  const Parsed<faults::Frontier> missing = faults::load_frontier(path);
  ASSERT_FALSE(missing);
  EXPECT_EQ(missing.error().kind, ParseKind::kIo);
}

// ------------------------------------------------------ resume semantics

TEST(FrontierRun, CleanSweepReconcilesCounts) {
  const faults::Frontier frontier = settle(kClean, /*jobs=*/2);
  EXPECT_EQ(frontier.best_hit(), sweep::kNoHit);
  std::uint64_t executions = 0;
  std::uint64_t weighted = 0;
  for (const faults::FrontierShard& shard : frontier.shards) {
    EXPECT_TRUE(shard.settled());
    executions += shard.executions;
    weighted += shard.weighted;
  }
  EXPECT_EQ(executions, faults::behavior_search_quotient_space(kClean));
  EXPECT_EQ(weighted, faults::behavior_search_space(kClean));
  EXPECT_EQ(weighted, frontier.space);
}

TEST(FrontierRun, KillAndResumeAtEveryBoundaryIsByteIdentical) {
  const std::string reference = artifact_of(settle(kViolating));

  // Suspend after every possible number of settled shards, then resume to
  // completion — through a serialize/parse round trip, exactly as a new
  // process would — alternating jobs values across runs.
  const std::size_t shard_count =
      faults::init_behavior_frontier(kViolating).shards.size();
  for (std::size_t boundary = 1; boundary <= shard_count; ++boundary) {
    SCOPED_TRACE("suspend after " + std::to_string(boundary) + " shards");
    faults::Frontier frontier = faults::init_behavior_frontier(kViolating);
    int runs = 0;
    int checkpoints = 0;
    bool settled = false;
    while (!settled) {
      ASSERT_LT(runs, 64) << "frontier failed to converge";
      faults::FrontierRunOptions options;
      options.jobs = (runs % 2 == 0) ? 1 : 3;
      options.max_shards = static_cast<int>(boundary);
      options.checkpoint = [&checkpoints](const faults::Frontier& snapshot) {
        // Every incremental checkpoint must itself round-trip.
        const Parsed<faults::Frontier> parsed =
            faults::parse_frontier(serialize_frontier(snapshot));
        ASSERT_TRUE(parsed) << parsed.error().to_string();
        ++checkpoints;
      };
      const faults::FrontierRun run =
          faults::run_behavior_frontier(frontier, options);
      ASSERT_TRUE(run.error.empty()) << run.error;
      settled = run.settled;
      if (settled) {
        ASSERT_TRUE(run.violation.has_value());
        EXPECT_EQ(run.violation->spec.config.n, kViolating.n);
      }
      // Reload from bytes: resuming must survive the serialized form.
      const Parsed<faults::Frontier> reloaded =
          faults::parse_frontier(serialize_frontier(frontier));
      ASSERT_TRUE(reloaded) << reloaded.error().to_string();
      frontier = *reloaded;
      ++runs;
    }
    EXPECT_GT(checkpoints, 0);
    EXPECT_EQ(artifact_of(frontier), reference);
  }
}

TEST(FrontierRun, SplitPartsMergeToTheSameArtifact) {
  const std::string reference = artifact_of(settle(kViolating));

  // Run each split part in isolation — different jobs per part, as
  // distributed workers would — then merge and compare bytes.
  const std::vector<faults::Frontier> parts =
      faults::split_frontier(faults::init_behavior_frontier(kViolating), 3);
  std::vector<faults::Frontier> finished;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    faults::Frontier part = parts[i];
    faults::FrontierRunOptions options;
    options.jobs = static_cast<int>(i) + 1;
    const faults::FrontierRun run =
        faults::run_behavior_frontier(part, options);
    ASSERT_TRUE(run.error.empty()) << run.error;
    EXPECT_FALSE(run.settled) << "a split part must not settle alone";
    finished.push_back(std::move(part));
  }
  const Parsed<faults::Frontier> merged = faults::merge_frontiers(finished);
  ASSERT_TRUE(merged) << merged.error().to_string();
  EXPECT_TRUE(merged->settled());
  EXPECT_EQ(artifact_of(*merged), reference);
}

TEST(FrontierRun, RejectsForeignShardPlans) {
  faults::Frontier frontier = faults::init_behavior_frontier(kViolating);
  ASSERT_GT(frontier.shards.size(), 1u);
  // Fuse the first two shards: still a valid frontier file, but not this
  // search's plan.
  frontier.shards[0].end = frontier.shards[1].end;
  frontier.shards.erase(frontier.shards.begin() + 1);
  const faults::FrontierRun run = faults::run_behavior_frontier(frontier);
  EXPECT_FALSE(run.error.empty());
  EXPECT_NE(run.error.find("shard plan"), std::string::npos) << run.error;
}

TEST(FrontierRun, RejectsConfigsPastTheSearchCap) {
  // Each frontier parses, but the behaviour search cannot run it: run
  // must return an error and leave the frontier untouched, never abort.
  const auto one_shard = [](const Config& config, int max_f,
                            std::uint64_t space) {
    faults::Frontier frontier;
    frontier.config = config;
    frontier.max_f = max_f;
    frontier.space = space;
    frontier.shards.push_back({0, 1, 0});
    return frontier;
  };
  struct Case {
    faults::Frontier frontier;
    const char* why;
  };
  for (const Case& c : {
           // (6,1,3): a faulty subset holding the sender controls 13 slots.
           Case{one_shard({.n = 6, .m = 1, .u = 3}, 3, 840829184),
                "controls 13 slots, past the cap of 12"},
           // (5,1,2) with every node faulty: 16 slots.
           Case{one_shard({.n = 5, .m = 1, .u = 2}, 5, 1), "past the cap"},
           Case{one_shard({.n = 4, .m = 1, .u = 2}, 9, 3952),
                "fault limit exceeds n"},
           Case{one_shard({.n = 2, .m = 1, .u = 1}, 1, 5), "n >= 2m+1"},
       }) {
    faults::Frontier frontier = c.frontier;
    const faults::FrontierRun run = faults::run_behavior_frontier(frontier);
    EXPECT_NE(run.error.find(c.why), std::string::npos) << run.error;
    EXPECT_EQ(run.error.rfind("frontier: ", 0), 0u) << run.error;
    EXPECT_EQ(frontier, c.frontier);
    EXPECT_FALSE(
        faults::behavior_search_unsupported(c.frontier.config,
                                            c.frontier.max_f)
            .empty());
  }
  EXPECT_EQ(faults::behavior_search_unsupported(kViolating), "");
  EXPECT_EQ(faults::behavior_search_unsupported({.n = 5, .m = 1, .u = 2}),
            "");
}

TEST(FrontierRun, UnreducedRunFindsTheSameHit) {
  // The quotient frontier's hit and rematerialized adversary are those of
  // a scratch `behavior_at` scan of the full enumeration, in order.
  std::uint64_t scan_hit = sweep::kNoHit;
  std::optional<faults::Violation> scan_violation;
  const std::uint64_t space = faults::behavior_search_space(kViolating);
  for (std::uint64_t o = 0; o < space && !scan_violation; ++o) {
    scan_violation = faults::behavior_at(kViolating, -1, o);
    if (scan_violation.has_value()) scan_hit = o;
  }
  ASSERT_EQ(scan_hit, 129u);

  faults::Frontier frontier = faults::init_behavior_frontier(kViolating);
  const faults::FrontierRun run = faults::run_behavior_frontier(frontier);
  ASSERT_TRUE(run.error.empty()) << run.error;
  ASSERT_TRUE(run.settled);
  EXPECT_EQ(frontier.best_hit(), scan_hit);
  ASSERT_TRUE(run.violation.has_value());
  EXPECT_EQ(run.violation->adversary, scan_violation->adversary);
  EXPECT_EQ(run.violation->spec.to_string(), scan_violation->spec.to_string());
}

TEST(FrontierRun, RejectsTamperedClassTables) {
  // A class table that disagrees with the search's own quotient plan is
  // rejected up front, before any shard executes — whether weights were
  // swapped or the table is gone.
  faults::Frontier tampered = faults::init_behavior_frontier(kClean);
  ASSERT_GE(tampered.classes.size(), 2u);
  std::swap(tampered.classes.front().weight, tampered.classes.back().weight);
  ASSERT_NE(tampered.classes.front().weight, tampered.classes.back().weight);
  faults::Frontier classless = faults::init_behavior_frontier(kClean);
  classless.classes.clear();
  for (faults::Frontier frontier : {tampered, classless}) {
    const faults::Frontier before = frontier;
    const faults::FrontierRun run = faults::run_behavior_frontier(frontier);
    EXPECT_NE(run.error.find("class"), std::string::npos) << run.error;
    EXPECT_EQ(frontier, before);
  }
}

}  // namespace
}  // namespace da
