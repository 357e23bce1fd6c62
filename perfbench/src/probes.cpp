#include "probes.hpp"

#include "core/byz.hpp"
#include "core/checker.hpp"
#include "faults/adversaries.hpp"
#include "protocols/common/eig.hpp"
#include "protocols/common/vote.hpp"
#include "protocols/lamport/om.hpp"
#include "sim/round_engine.hpp"
#include "util/path.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kBatches = 7;

/// Keeps the compiler from discarding a probed call's result.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

void fill_subtree(da::protocols::EigTree& tree, const da::Path& path,
                  const std::vector<da::NodeId>& nodes, int depth,
                  da::Rng& rng) {
  tree.set(path, da::Value::of(rng.range(0, 3)));
  if (static_cast<int>(path.size()) == depth) return;
  for (const da::NodeId j : nodes) {
    if (path.contains(j)) continue;
    da::Path child = path;
    child.push_back(j);
    fill_subtree(tree, child, nodes, depth, rng);
  }
}

/// Resolve cost on a fully written arena (every slot set: the worst case a
/// receiver meets at the end of an execution).
double probe_eig_resolve(int n, int depth, std::uint64_t seed, int calls) {
  std::vector<da::NodeId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(i);
  da::protocols::EigTree tree(/*self=*/1, /*sender=*/0, nodes, depth);
  da::Rng rng(seed);
  da::Path root;
  root.push_back(0);
  fill_subtree(tree, root, nodes, depth, rng);
  const da::protocols::ByzResolver rule(depth - 1);
  return per_call(kBatches, calls, 1e6,
                  [&] { keep(tree.resolve(rule)); });
}

}  // namespace

ProtocolCosts probe_protocols(std::uint64_t seed) {
  ProtocolCosts out;
  // VOTE inputs shaped like the certify and service resolves: n-1 values
  // for n in {6, 7}, drawn from the sender value, one forged value and V_d.
  da::Rng rng(derive(seed, 0x707e));
  std::vector<std::vector<da::Value>> inputs;
  for (int i = 0; i < 256; ++i) {
    const std::size_t size = i % 2 == 0 ? 5 : 6;
    std::vector<da::Value> values;
    for (std::size_t k = 0; k < size; ++k) {
      const auto pick = rng.below(4);
      values.push_back(pick == 0   ? da::Value::def()
                       : pick == 1 ? da::Value::of(5)
                                   : da::Value::of(17));
    }
    inputs.push_back(std::move(values));
  }
  std::size_t next = 0;
  out.vote_ns = per_call(kBatches, 200000, 1e9, [&] {
    const auto& values = inputs[next];
    next = (next + 1) % inputs.size();
    keep(da::protocols::vote(values, values.size() / 2 + 1));
  });
  out.eig_n6d2_us = probe_eig_resolve(6, 2, derive(seed, 0xe162), 20000);
  out.eig_n7d3_us = probe_eig_resolve(7, 3, derive(seed, 0xe173), 2000);
  return out;
}

ShapeCost probe_shape(const Shape& shape) {
  da::ScenarioSpec spec;
  spec.config = shape.config;
  spec.sender = 0;
  spec.sender_value = da::Value::of(17);
  spec.faulty = shape.faulty;
  auto adversary = da::faults::equivocator(spec.sender_value,
                                           da::Value::of(5));
  da::sim::RunOptions options;
  options.faulty = spec.faulty;
  options.adversary = adversary.get();
  auto processes =
      shape.kind == ShapeKind::kByz
          ? da::core::make_byz_processes(spec.config, spec.sender,
                                         spec.sender_value)
          : da::protocols::lamport::make_om_processes(
                spec.config.n, spec.config.m, spec.sender, spec.sender_value);
  da::sim::RoundEngine engine(std::move(processes), options);
  engine.begin();
  const da::sim::RoundEngine::Snapshot start = engine.snapshot();

  ShapeCost cost;
  cost.rounds = engine.total_rounds();
  // Calls per batch scale down with the shape's message volume.
  const int calls = shape.config.n >= 7 ? 400 : 2000;
  cost.restore_us =
      per_call(kBatches, calls, 1e6, [&] { engine.restore(start); });
  engine.restore(start);
  cost.snapshot_us = per_call(kBatches, calls / 4, 1e6, [&] {
    const da::sim::RoundEngine::Snapshot snap = engine.snapshot();
    keep(snap);
  });

  // dispatch_pending / process_round are timed call by call: each needs
  // the engine in the state the previous phase left it in.
  std::vector<double> dispatch;
  std::vector<double> process;
  for (int b = 0; b < kBatches; ++b) {
    double d_ms = 0.0;
    double p_ms = 0.0;
    for (int i = 0; i < calls / 4; ++i) {
      engine.restore(start);
      while (!engine.done()) {
        const auto t0 = Clock::now();
        engine.dispatch_pending();
        const auto t1 = Clock::now();
        engine.process_round();
        const auto t2 = Clock::now();
        d_ms += ms_between(t0, t1);
        p_ms += ms_between(t1, t2);
      }
    }
    const double per = 1e3 / (calls / 4.0 * cost.rounds);
    dispatch.push_back(d_ms * per);
    process.push_back(p_ms * per);
  }
  cost.dispatch_us = median(std::move(dispatch));
  cost.process_round_us = median(std::move(process));

  da::sim::RunResult result;
  engine.finish_into(result);
  cost.check_us = per_call(kBatches, calls, 1e6, [&] {
    keep(da::check_conditions(spec, result.decisions).satisfied);
  });
  return cost;
}

}  // namespace perfbench
