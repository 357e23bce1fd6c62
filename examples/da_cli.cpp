// da_cli: run a single degradable-agreement scenario from the command line.
//
//   da_cli [--n N] [--m M] [--u U] [--sender S] [--value V]
//          [--faulty a,b,c] [--adversary NAME] [--runtime sim|threaded]
//          [--trace]
//
// Adversaries: honest, silent, liar, default, equivocator, pivot, crash,
// noise. Exit status 0 iff the governing condition D.1-D.4 is satisfied.
//
//   $ da_cli --n 7 --m 1 --u 4 --faulty 2,3,5 --adversary equivocator
//
// This is the "try the paper" entry point: pick any configuration, any
// fault pattern, any strategy, and see which condition applies and whether
// the protocol met it.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "da/da.hpp"
#include "util/parse.hpp"

namespace {

struct Args {
  int n = 7;
  int m = 1;
  int u = 4;
  da::NodeId sender = 0;
  std::int64_t value = 42;
  std::vector<da::NodeId> faulty;
  std::string adversary = "equivocator";
  bool threaded = false;
  bool trace = false;
};

constexpr const char* kUsage =
    "usage: da_cli [--n N] [--m M] [--u U] [--sender S] [--value V]\n"
    "              [--faulty a,b,c] [--adversary NAME]\n"
    "              [--runtime sim|threaded] [--trace]\n"
    "adversaries: honest silent liar default equivocator pivot crash noise";

// The adversaries lie with `value + 13` and draw noise from `value ± 5`,
// so --value keeps that far from the int64 limits.
using Limits = std::numeric_limits<std::int64_t>;
constexpr std::int64_t kMinValue = Limits::min() + 5;
constexpr std::int64_t kMaxValue = Limits::max() - 13;

/// Reads the command line and checks the scenario it names with the
/// conditions of `ScenarioSpec::validate` and the EIG engine, so a bad
/// scenario is a usage error (exit 2), never a contract abort.
Args parse(int argc, char** argv, da::ArgReader& reader) {
  Args args;
  std::string faulty;
  // EigLayout's rank mask holds 64 nodes; BYZ(m) relays m + 1 hops a path.
  reader.integer("--n", args.n, 2, 64)
      .integer("--m", args.m, 0, static_cast<int>(da::Path::kMaxLen) - 1)
      .integer("--u", args.u, 0, 63)
      .integer("--sender", args.sender, 0, 63)
      .integer("--value", args.value, kMinValue, kMaxValue)
      .text("--faulty", faulty)
      .text("--adversary", args.adversary)
      .choice("--runtime", args.threaded, {{"sim", false}, {"threaded", true}})
      .flag("--trace", args.trace)
      .read(argc, argv);
  const da::Config config{.n = args.n, .m = args.m, .u = args.u};
  if (!config.valid()) reader.refuse("invalid config: " + config.to_string());
  if (!config.engine_runnable()) {
    reader.refuse(da::UnsupportedConfig(config).what());
  }
  const std::string ids = "ids in [0, " + std::to_string(args.n - 1) + "]";
  if (args.sender >= args.n) reader.fail("--sender", "one of the " + ids);
  for (std::string_view rest = faulty; !faulty.empty();) {
    const std::size_t comma = rest.find(',');
    args.faulty.push_back(reader.number<da::NodeId>(
        "--faulty", rest.substr(0, comma), 0, args.n - 1));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  std::sort(args.faulty.begin(), args.faulty.end());
  if (std::adjacent_find(args.faulty.begin(), args.faulty.end()) !=
      args.faulty.end()) {
    reader.fail("--faulty", "distinct " + ids);
  }
  return args;
}

std::unique_ptr<da::sim::Adversary> make_adversary(
    const Args& args, const da::ArgReader& reader) {
  const da::Value truth = da::Value::of(args.value);
  const da::Value lie = da::Value::of(args.value + 13);
  if (args.adversary == "honest") return da::faults::honest();
  if (args.adversary == "silent") return da::faults::silent();
  if (args.adversary == "liar") return da::faults::constant_liar(lie);
  if (args.adversary == "default") return da::faults::default_spammer();
  if (args.adversary == "equivocator") {
    return da::faults::equivocator(truth, lie);
  }
  if (args.adversary == "pivot") {
    return da::faults::pivot_equivocator(truth, lie, args.n / 2);
  }
  if (args.adversary == "crash") return da::faults::crash_after(0);
  if (args.adversary == "noise") {
    return da::faults::random_noise(99, args.value - 5, args.value + 5, 0.25);
  }
  reader.fail("--adversary",
              "one of honest silent liar default equivocator pivot crash "
              "noise");
}

}  // namespace

int main(int argc, char** argv) {
  da::ArgReader reader("da_cli", kUsage);
  const Args args = parse(argc, argv, reader);
  auto adversary = make_adversary(args, reader);

  da::ScenarioSpec spec;
  spec.config = da::Config{.n = args.n, .m = args.m, .u = args.u};
  spec.sender = args.sender;
  spec.sender_value = da::Value::of(args.value);
  spec.faulty = args.faulty;

  std::printf("scenario: %s\n", spec.to_string().c_str());
  std::printf("feasible: %s (N_min = %d, connectivity_min = %d)\n",
              spec.config.feasible() ? "yes" : "NO",
              da::bounds::min_nodes(args.m, args.u),
              da::bounds::min_connectivity(args.m, args.u));

  const da::DegradableAgreement protocol(spec.config);
  da::sim::Trace trace;
  da::RunExtras extras;
  if (args.trace) extras.trace = &trace;

  const da::Outcome outcome =
      args.threaded
          ? protocol.run_threaded(spec, adversary.get(), extras)
          : protocol.run(spec, adversary.get(), extras);

  std::printf("\n%d rounds, %zu messages sent, %zu delivered\n",
              outcome.rounds, outcome.messages_sent,
              outcome.messages_delivered);
  for (const auto& [node, decision] : outcome.decisions) {
    std::printf("  node %-3d -> %-6s%s\n", node,
                decision.to_string().c_str(),
                spec.is_faulty(node)  ? " (faulty)"
                : node == spec.sender ? " (sender)"
                                      : "");
  }

  const da::ConditionReport report =
      da::check_conditions(spec, outcome.decisions);
  std::printf("\ncondition %s: %s\n", da::to_string(report.applied),
              report.satisfied ? "SATISFIED" : "VIOLATED");
  if (!report.detail.empty()) std::printf("  %s\n", report.detail.c_str());
  std::printf("value class %zu, default class %zu, largest agreeing %d "
              "(corollary m+1: %s)\n",
              report.value_class.size(), report.default_class.size(),
              report.largest_agreeing_class,
              report.corollary_m_plus_1 ? "holds" : "fails");

  if (args.trace) {
    for (const auto& [node, decision] : outcome.decisions) {
      std::printf("\n--- transcript of node %d ---\n%s", node,
                  trace.transcript(node).c_str());
    }
  }
  return report.satisfied ? 0 : 1;
}
