// Differential property tests for the arena-backed EigTree: a map-based
// reference tree (the pre-arena implementation, kept here as an executable
// specification) must agree with the arena on get()/has(), on resolve()
// under every applicable rule, and — end to end — on the D.1-D.4 verdicts
// of full BYZ executions replayed from their transcripts.
//
// A fixed regression corpus (tests/corpus/eig_layout.txt, lines of
// `seed ordinal`, # comments) replays first; randomized sweeps follow.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/byz.hpp"
#include "core/checker.hpp"
#include "faults/search.hpp"
#include "protocols/common/eig.hpp"
#include "sim/round_engine.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace da::protocols {
namespace {

/// Executable specification: the hash-map EIG tree this repo used before
/// the flat arena. Absent slots read as V_d; resolve is the direct
/// recursive transcription of the paper's rule.
class RefEigTree {
 public:
  RefEigTree(NodeId self, NodeId sender, std::vector<NodeId> nodes, int depth)
      : self_(self), sender_(sender), nodes_(std::move(nodes)), depth_(depth) {
    std::sort(nodes_.begin(), nodes_.end());
  }

  void set(const Path& path, Value v) { values_.emplace(path, v); }

  [[nodiscard]] Value get(const Path& path) const {
    const auto it = values_.find(path);
    return it == values_.end() ? Value::def() : it->second;
  }

  [[nodiscard]] bool has(const Path& path) const {
    return values_.contains(path);
  }

  [[nodiscard]] Value resolve(const Resolver& rule) const {
    Path root;
    root.push_back(sender_);
    return resolve_at(root, rule);
  }

 private:
  [[nodiscard]] Value resolve_at(const Path& path,
                                 const Resolver& rule) const {
    if (static_cast<int>(path.size()) == depth_) return get(path);
    const int n_sub = static_cast<int>(nodes_.size()) -
                      static_cast<int>(path.size()) + 1;
    std::vector<Value> w;
    w.push_back(get(path));
    for (NodeId j : nodes_) {
      if (j == self_ || path.contains(j)) continue;
      w.push_back(resolve_at(path.extended(j), rule));
    }
    return rule.resolve(n_sub, w);
  }

  NodeId self_;
  NodeId sender_;
  std::vector<NodeId> nodes_;
  int depth_;
  std::unordered_map<Path, Value> values_;
};

/// Every storable path: starts at the first element of `cur`, distinct
/// participants, length <= depth.
void enumerate_paths(const std::vector<NodeId>& nodes, const Path& cur,
                     int depth, std::vector<Path>* out) {
  out->push_back(cur);
  if (static_cast<int>(cur.size()) == depth) return;
  for (NodeId j : nodes) {
    if (!cur.contains(j)) enumerate_paths(nodes, cur.extended(j), depth, out);
  }
}

/// One ordinal of the tree-level differential: random shape (including
/// non-contiguous, shuffled node ids and self == sender), random sparse
/// fill, then arena and reference compared slot by slot and rule by rule.
bool tree_case(std::uint64_t seed, std::uint64_t ordinal,
               std::string* failure) {
  Rng rng(mix64(seed, ordinal));
  const int n = 2 + static_cast<int>(rng.below(9));  // 2..10
  const int depth = 1 + static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(std::min(4, n - 1))));
  // Non-contiguous ids with a random base exercise the rank mapping.
  const NodeId base = static_cast<NodeId>(rng.below(4));
  const NodeId stride = 1 + static_cast<NodeId>(rng.below(3));
  std::vector<NodeId> nodes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    nodes[static_cast<std::size_t>(i)] = base + stride * i;
  }
  const NodeId sender =
      nodes[rng.below(static_cast<std::uint64_t>(n))];
  // self == sender is a storage-only configuration: the sender decides on
  // its own input and never resolves (both implementations assert w-size
  // in resolve under that shape), so resolve comparisons need self to be
  // a receiver. get/has still cover the sender's tree below.
  const NodeId self = nodes[rng.below(static_cast<std::uint64_t>(n))];
  const bool can_resolve = self != sender || depth == 1;
  std::vector<NodeId> shuffled = nodes;
  rng.shuffle(shuffled);

  EigTree arena(self, sender, shuffled, depth);
  RefEigTree ref(self, sender, shuffled, depth);

  Path root;
  root.push_back(sender);
  std::vector<Path> paths;
  enumerate_paths(nodes, root, depth, &paths);
  for (const Path& p : paths) {
    const std::uint64_t roll = rng.below(10);
    if (roll >= 6) continue;  // leave the slot absent
    const Value v =
        roll == 0 ? Value::def() : Value::of(rng.range(1, 5));
    arena.set(p, v);
    ref.set(p, v);
  }

  const auto describe = [&](const char* what) {
    std::ostringstream out;
    out << "iter " << ordinal << " n=" << n << " depth=" << depth
        << " sender=" << sender << " self=" << self << ": " << what;
    return out.str();
  };

  for (const Path& p : paths) {
    if (arena.has(p) != ref.has(p) || !(arena.get(p) == ref.get(p))) {
      *failure = describe("get/has mismatch");
      return true;
    }
  }
  if (can_resolve) {
    const MajorityResolver majority;
    if (!(arena.resolve(majority) == ref.resolve(majority))) {
      *failure = describe("majority resolve mismatch");
      return true;
    }
    // Every m for which the deepest sub-instance still has alpha >= 1.
    for (int m = 0; m <= n - depth - 1; ++m) {
      const ByzResolver rule(m);
      if (!(arena.resolve(rule) == ref.resolve(rule))) {
        *failure = describe("byz resolve mismatch");
        return true;
      }
    }
  }
  return false;
}

bool replay_valid(NodeId self, NodeId sender, int n, int round,
                  const sim::Message& msg) {
  if (msg.to != self) return false;
  if (static_cast<int>(msg.path.size()) != round + 1) return false;
  if (msg.path.front() != sender) return false;
  if (msg.path.back() != msg.from) return false;
  if (!msg.path.distinct()) return false;
  if (msg.path.contains(self)) return false;
  for (NodeId hop : msg.path) {
    if (hop < 0 || hop >= n) return false;
  }
  return true;
}

/// One ordinal of the end-to-end differential: run BYZ(m) on the sync
/// runner under a randomly drawn member of the standard attack family,
/// replay each fault-free receiver's transcript into the reference tree
/// (same validation and first-delivery-wins dedupe as EigProcess), and
/// require identical decisions and identical D.1-D.4 verdicts.
bool verdict_case(std::uint64_t seed, std::uint64_t ordinal,
                  std::string* failure) {
  Rng rng(mix64(seed, ordinal));
  const int m = static_cast<int>(rng.below(4));  // depth = m+1 <= 4
  const int u = std::max(1, m + static_cast<int>(rng.below(3)));
  const int slack = static_cast<int>(rng.below(2));
  const Config config{.n = 2 * m + u + 1 + slack, .m = m, .u = u};
  if (config.n > 10) return false;  // keep the sweep bounded

  ScenarioSpec spec;
  spec.config = config;
  spec.sender =
      static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(config.n)));
  spec.sender_value = Value::of(rng.range(1, 100));
  const int f = static_cast<int>(
      rng.below(static_cast<std::uint64_t>(config.u) + 1));
  const auto subset = rng.subset(config.n, f);
  spec.faulty.assign(subset.begin(), subset.end());

  const auto family = faults::standard_family(mix64(seed, ordinal));
  const auto& factory = family[rng.below(family.size())];
  const auto adversary = factory.make(spec);

  sim::Trace trace;
  sim::RunOptions options;
  options.faulty = spec.faulty;
  options.adversary = adversary.get();
  options.trace = &trace;
  sim::RoundEngine runner(
      core::make_byz_processes(config, spec.sender, spec.sender_value),
      std::move(options));
  const sim::RunResult result = runner.run();

  const int depth = core::byz_depth(m);
  const ByzResolver rule(m);
  std::vector<NodeId> all(static_cast<std::size_t>(config.n));
  std::iota(all.begin(), all.end(), 0);

  sim::Decisions ref_decisions = result.decisions;
  for (NodeId node : spec.fault_free_receivers()) {
    RefEigTree ref(node, spec.sender, all, depth);
    std::vector<std::vector<sim::Message>> by_round(
        static_cast<std::size_t>(depth));
    for (const sim::Message& msg : trace.received(node)) {
      if (msg.round >= 0 && msg.round < depth) {
        by_round[static_cast<std::size_t>(msg.round)].push_back(msg);
      }
    }
    for (int r = 0; r < depth; ++r) {
      auto& inbox = by_round[static_cast<std::size_t>(r)];
      sim::sort_inbox(inbox);
      for (const sim::Message& msg : inbox) {
        if (!replay_valid(node, spec.sender, config.n, r, msg)) continue;
        if (ref.has(msg.path)) continue;
        ref.set(msg.path, msg.value);
      }
    }
    ref_decisions[node] = ref.resolve(rule);
    if (!(ref_decisions[node] == result.decisions.at(node))) {
      *failure = "iter " + std::to_string(ordinal) + " " + spec.to_string() +
                 " adversary=" + factory.name + ": node " +
                 std::to_string(node) + " decision mismatch";
      return true;
    }
  }

  const ConditionReport run_report = check_conditions(spec, result.decisions);
  const ConditionReport ref_report = check_conditions(spec, ref_decisions);
  if (run_report.applied != ref_report.applied ||
      run_report.satisfied != ref_report.satisfied ||
      run_report.value_class != ref_report.value_class ||
      run_report.default_class != ref_report.default_class ||
      run_report.corollary_m_plus_1 != ref_report.corollary_m_plus_1) {
    *failure = "iter " + std::to_string(ordinal) + " " + spec.to_string() +
               " adversary=" + factory.name + ": verdict mismatch (" +
               run_report.detail + " vs " + ref_report.detail + ")";
    return true;
  }
  return false;
}

/// Replays tests/corpus/eig_layout.txt through one of the case functions.
void replay_corpus(bool (*layout_case)(std::uint64_t, std::uint64_t,
                                       std::string*)) {
  std::ifstream in(std::string(DA_TEST_CORPUS_DIR) + "/eig_layout.txt");
  ASSERT_TRUE(in.is_open()) << "missing tests/corpus/eig_layout.txt";
  std::string line;
  int replayed = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::uint64_t ordinal = 0;
    ASSERT_TRUE(fields >> seed >> ordinal) << "bad corpus line: " << line;
    std::string failure;
    EXPECT_FALSE(layout_case(seed, ordinal, &failure))
        << "eig_layout.txt " << seed << " " << ordinal << ": " << failure;
    ++replayed;
  }
  EXPECT_GE(replayed, 4) << "eig_layout.txt corpus is unexpectedly small";
}

TEST(EigLayoutProperty, CorpusTreeReplay) { replay_corpus(tree_case); }

TEST(EigLayoutProperty, CorpusVerdictReplay) { replay_corpus(verdict_case); }

TEST(EigLayoutProperty, ArenaMatchesReferenceTree) {
  constexpr std::uint64_t kIterations = 300;
  for (std::uint64_t ordinal = 0; ordinal < kIterations; ++ordinal) {
    std::string failure;
    ASSERT_FALSE(tree_case(0xA12E4A, ordinal, &failure)) << failure;
  }
}

TEST(EigLayoutProperty, VerdictsMatchReference) {
  constexpr std::uint64_t kIterations = 80;
  for (std::uint64_t ordinal = 0; ordinal < kIterations; ++ordinal) {
    std::string failure;
    ASSERT_FALSE(verdict_case(0x5EED5, ordinal, &failure)) << failure;
  }
}

// The predicted size is the built layout's size on every small shape,
// and saturates rather than wraps past 2^64.
TEST(EigLayout, SlotCountMatchesBuiltLayouts) {
  for (int n = 2; n <= 9; ++n) {
    for (int depth = 1; depth <= 4; ++depth) {
      EXPECT_EQ(EigLayout::slot_count(n, depth),
                EigLayout::get(n, 0, depth)->size())
          << n << "," << depth;
    }
  }
  EXPECT_EQ(EigLayout::slot_count(4, 2), 4u);
  EXPECT_EQ(EigLayout::slot_count(7, 3), 1u + 6u + 30u);
  EXPECT_EQ(EigLayout::slot_count(64, 12),
            std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace da::protocols
