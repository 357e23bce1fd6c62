// Resumable exhaustive behaviour certification from the command line:
// initialize a serialized search frontier, run (or resume) it with a
// shard budget, split it across files for distribution, merge the parts
// back, and emit the final byte-deterministic artifact.
//
//   search_resume init    --out F [--n N --m M --u U] [--max-f K] [--seed S]
//   search_resume run     --frontier F [--jobs J] [--max-shards K]
//   search_resume status  --frontier F
//   search_resume split   --frontier F --parts P --out-prefix PFX
//   search_resume merge   --out F part1 part2 ...
//   search_resume artifact --frontier F [--out F2]
//
// `init` writes a subset-quotiented frontier (da-frontier v2, one class
// record per conjugacy class; docs/SEARCH.md §6), the only format `run`
// resumes.
//
// `run` checkpoints the frontier back to its file after every settled
// shard (atomic tmp+rename), so a `kill -9` mid-sweep loses at most the
// in-flight shards' partial cursors; rerunning `run` resumes from the
// last checkpoint and converges to the same normalized artifact for any
// --jobs value and any interruption pattern (docs/SEARCH.md §5).
// `artifact` refuses to print until the frontier has settled.
//
// `status` output is a pure function of the frontier bytes (frontiers
// store no wall times, keeping artifacts machine-independent), so its
// eta line only reports "settled" or the remaining-shard count; `run`
// appends a live estimate from the shards it just timed.
//
// `init` refuses, as a usage error, a config the behaviour search cannot
// run (for example one past the 12-slot cap); `run` and `artifact`
// refuse such a frontier the same way. Numeric flags are read whole into
// their own types: --seed is an unsigned 64-bit value, --jobs a count
// (0 = all cores), --parts at least 1, --max-f and --max-shards at least
// -1 (-1: the config's u / no budget); anything else is a usage error.
//
// Exit status: 0 on success (for `run`: the verdict may be either way;
// for `artifact`: frontier settled), 1 on a clean "not settled yet",
// 2 on usage or file errors.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "faults/behavior_search.hpp"
#include "faults/frontier.hpp"
#include "util/parse.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "search_resume: %s\n", msg);
  std::fprintf(
      stderr,
      "usage:\n"
      "  search_resume init    --out F [--n N --m M --u U] [--max-f K] "
      "[--seed S]\n"
      "  search_resume run     --frontier F [--jobs J] [--max-shards K]\n"
      "  search_resume status  --frontier F\n"
      "  search_resume split   --frontier F --parts P --out-prefix PFX\n"
      "  search_resume merge   --out F part1 part2 ...\n"
      "  search_resume artifact --frontier F [--out F2]\n");
  std::exit(2);
}

/// Reads `text` whole as a T no smaller than `min`, or exits 2 with a
/// usage error naming `flag` and what it `expects`.
template <typename T>
T number_or_die(const char* flag, const char* text, T min,
                const char* expects) {
  T value{};
  if (!da::parse_number(text, value) || value < min) {
    usage((std::string(flag) + " expects " + expects).c_str());
  }
  return value;
}

da::faults::Frontier load_or_die(const std::string& path) {
  da::Parsed<da::faults::Frontier> parsed = da::faults::load_frontier(path);
  if (!parsed) {
    std::fprintf(stderr, "search_resume: %s: %s\n", path.c_str(),
                 parsed.error().to_string().c_str());
    std::exit(2);
  }
  return std::move(*parsed);
}

void save_or_die(const da::faults::Frontier& frontier,
                 const std::string& path) {
  if (!da::faults::save_frontier(frontier, path)) {
    std::fprintf(stderr, "search_resume: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

void print_status(const da::faults::Frontier& frontier) {
  std::size_t settled = 0;
  std::uint64_t scanned = 0;
  std::uint64_t covered = 0;
  std::uint64_t executions = 0;
  std::uint64_t weighted = 0;
  for (const da::faults::FrontierShard& s : frontier.shards) {
    if (s.settled()) ++settled;
    scanned += s.cursor - s.begin;
    covered += s.end - s.begin;
    executions += s.executions;
    weighted += s.weighted;
  }
  std::printf("config        n=%d m=%d u=%d max_f=%d seed=%llu\n",
              frontier.config.n, frontier.config.m, frontier.config.u,
              frontier.max_f,
              static_cast<unsigned long long>(frontier.seed));
  std::printf("space         %llu ordinals, %zu shards (%s)\n",
              static_cast<unsigned long long>(frontier.space),
              frontier.shards.size(),
              frontier.covers_space() ? "full plan" : "split part");
  std::printf("plan          subset-quotiented, %zu conjugacy classes "
              "(da-frontier v2)\n",
              frontier.classes.size());
  // Percentages are over the *plan* (the shards this file owns — a split
  // part reports its own completion, not the whole space's).
  const double plan_pct =
      covered == 0 ? 100.0
                   : 100.0 * static_cast<double>(scanned) /
                         static_cast<double>(covered);
  std::printf("progress      %zu/%zu shards settled, %llu ordinals scanned "
              "(%.1f%% of plan)\n",
              settled, frontier.shards.size(),
              static_cast<unsigned long long>(scanned), plan_pct);
  const double space_pct =
      frontier.space == 0 ? 100.0
                          : 100.0 * static_cast<double>(weighted) /
                                static_cast<double>(frontier.space);
  std::printf("executions    %llu representatives, %llu orbit-weighted "
              "(%.1f%% of space)\n",
              static_cast<unsigned long long>(executions),
              static_cast<unsigned long long>(weighted), space_pct);
  if (frontier.settled()) {
    std::printf("eta           settled\n");
  } else {
    // Frontiers carry no wall times (artifacts stay byte-identical across
    // machines), so a saved file cannot price the remaining work; `run`
    // prints a live estimate from the shards it just timed.
    std::printf("eta           unknown (%zu shards remaining; run prints a "
                "live estimate)\n",
                frontier.shards.size() - settled);
  }
  const std::uint64_t hit = frontier.best_hit();
  if (hit == da::sweep::kNoHit) {
    std::printf("verdict       %s\n",
                frontier.settled() ? "clean (settled)" : "no hit yet");
  } else {
    std::printf("verdict       violation at ordinal %llu%s\n",
                static_cast<unsigned long long>(hit),
                frontier.settled() ? " (settled)" : " (candidate)");
  }
}

int cmd_run(const std::string& path, int jobs, int max_shards) {
  da::faults::Frontier frontier = load_or_die(path);
  da::faults::FrontierRunOptions options;
  options.jobs = jobs;
  options.max_shards = max_shards;
  options.checkpoint = [&path](const da::faults::Frontier& snapshot) {
    // Best-effort incremental checkpoint; the final state is saved below.
    (void)da::faults::save_frontier(snapshot, path);
  };
  const da::faults::FrontierRun run =
      da::faults::run_behavior_frontier(frontier, options);
  if (!run.error.empty()) {
    std::fprintf(stderr, "search_resume: %s\n", run.error.c_str());
    return 2;
  }
  save_or_die(frontier, path);
  print_status(frontier);
  if (!frontier.settled()) {
    // Live ETA from this run's own timing: average wall time of the
    // shards that settled here, priced over the shards still open. Not
    // part of the frontier (artifacts stay machine-independent).
    double wall_ms = 0.0;
    std::size_t timed = 0;
    for (const da::sweep::ShardStats& s : run.stats.per_shard) {
      if (s.worker >= 0 && s.cursor == s.end) {
        wall_ms += s.wall_ms;
        ++timed;
      }
    }
    std::size_t remaining = 0;
    for (const da::faults::FrontierShard& s : frontier.shards) {
      if (!s.settled()) ++remaining;
    }
    if (timed > 0 && remaining > 0) {
      const double per_shard = wall_ms / static_cast<double>(timed);
      std::printf("live eta      ~%.0f ms (%zu shards at ~%.2f ms/shard "
                  "this run)\n",
                  per_shard * static_cast<double>(remaining), remaining,
                  per_shard);
    }
  }
  if (run.violation.has_value()) {
    std::printf("violation     %s under %s: %s\n",
                run.violation->spec.to_string().c_str(),
                run.violation->adversary.c_str(),
                run.violation->report.detail.c_str());
  }
  return frontier.settled() ? 0 : 1;
}

int cmd_artifact(const std::string& path, const std::string& out) {
  da::faults::Frontier frontier = load_or_die(path);
  const std::string unsupported = da::faults::behavior_search_unsupported(
      frontier.config, frontier.max_f);
  if (!unsupported.empty()) {
    std::fprintf(stderr, "search_resume: frontier: %s\n", unsupported.c_str());
    return 2;
  }
  if (!frontier.settled()) {
    std::fprintf(stderr,
                 "search_resume: frontier not settled; run it to completion "
                 "(or merge all split parts) first\n");
    return 1;
  }
  frontier.normalize();
  std::string artifact = serialize_frontier(frontier);
  const std::uint64_t hit = frontier.best_hit();
  if (hit == da::sweep::kNoHit) {
    artifact += "verdict clean\n";
  } else {
    const auto violation = da::faults::behavior_at(
        frontier.config, frontier.max_f, hit);
    artifact += "verdict violation " + std::to_string(hit) + " " +
                (violation.has_value() ? violation->adversary : "?") + "\n";
  }
  if (out.empty()) {
    std::fputs(artifact.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr || std::fputs(artifact.c_str(), f) < 0) {
    std::fprintf(stderr, "search_resume: cannot write %s\n", out.c_str());
    if (f != nullptr) std::fclose(f);
    return 2;
  }
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  const std::string cmd = argv[1];
  std::string frontier_path;
  std::string out;
  std::string out_prefix;
  std::vector<std::string> positional;
  int n = 4;
  int m = 1;
  int u = 1;
  int max_f = -1;
  std::uint64_t seed = 1;
  int jobs = 1;
  int parts = 0;  // unset; split requires --parts
  int max_shards = -1;
  constexpr int kAnyInt = std::numeric_limits<int>::min();
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(arg);
      return argv[++i];
    };
    if (std::strcmp(arg, "--frontier") == 0) {
      frontier_path = value();
    } else if (std::strcmp(arg, "--out") == 0) {
      out = value();
    } else if (std::strcmp(arg, "--out-prefix") == 0) {
      out_prefix = value();
    } else if (std::strcmp(arg, "--n") == 0) {
      n = number_or_die(arg, value(), kAnyInt, "an integer");
    } else if (std::strcmp(arg, "--m") == 0) {
      m = number_or_die(arg, value(), kAnyInt, "an integer");
    } else if (std::strcmp(arg, "--u") == 0) {
      u = number_or_die(arg, value(), kAnyInt, "an integer");
    } else if (std::strcmp(arg, "--max-f") == 0) {
      max_f = number_or_die(arg, value(), -1,
                            "an integer >= -1 (-1 = the config's u)");
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = number_or_die<std::uint64_t>(arg, value(), 0,
                                          "an unsigned 64-bit integer");
    } else if (std::strcmp(arg, "--jobs") == 0) {
      jobs = number_or_die(arg, value(), 0, "a count, 0 = all cores");
    } else if (std::strcmp(arg, "--parts") == 0) {
      parts = number_or_die(arg, value(), 1, "a count >= 1");
    } else if (std::strcmp(arg, "--max-shards") == 0) {
      max_shards = number_or_die(arg, value(), -1,
                                 "an integer >= -1 (-1 = no budget)");
    } else if (arg[0] == '-') {
      usage(arg);
    } else {
      positional.emplace_back(arg);
    }
  }

  if (cmd == "init") {
    if (out.empty()) usage("init needs --out");
    const da::Config config{.n = n, .m = m, .u = u};
    const std::string unsupported =
        da::faults::behavior_search_unsupported(config, max_f);
    if (!unsupported.empty()) usage(unsupported.c_str());
    const da::faults::Frontier frontier =
        da::faults::init_behavior_frontier(config, max_f, seed);
    save_or_die(frontier, out);
    print_status(frontier);
    return 0;
  }
  if (cmd == "run") {
    if (frontier_path.empty()) usage("run needs --frontier");
    return cmd_run(frontier_path, jobs, max_shards);
  }
  if (cmd == "status") {
    if (frontier_path.empty()) usage("status needs --frontier");
    print_status(load_or_die(frontier_path));
    return 0;
  }
  if (cmd == "split") {
    if (frontier_path.empty() || parts == 0 || out_prefix.empty()) {
      usage("split needs --frontier, --parts and --out-prefix");
    }
    const da::faults::Frontier frontier = load_or_die(frontier_path);
    const std::vector<da::faults::Frontier> split = da::faults::split_frontier(
        frontier, static_cast<std::size_t>(parts));
    for (std::size_t i = 0; i < split.size(); ++i) {
      save_or_die(split[i], out_prefix + std::to_string(i));
    }
    std::printf("split %zu shards into %zu parts\n", frontier.shards.size(),
                split.size());
    return 0;
  }
  if (cmd == "merge") {
    if (out.empty() || positional.empty()) {
      usage("merge needs --out and part files");
    }
    std::vector<da::faults::Frontier> frontiers;
    frontiers.reserve(positional.size());
    for (const std::string& path : positional) {
      frontiers.push_back(load_or_die(path));
    }
    const da::Parsed<da::faults::Frontier> merged =
        da::faults::merge_frontiers(frontiers);
    if (!merged) {
      std::fprintf(stderr, "search_resume: merge: %s\n",
                   merged.error().to_string().c_str());
      return 2;
    }
    save_or_die(*merged, out);
    print_status(*merged);
    return 0;
  }
  if (cmd == "artifact") {
    if (frontier_path.empty()) usage("artifact needs --frontier");
    return cmd_artifact(frontier_path, out);
  }
  usage("unknown subcommand");
}
