// Fault-plan toolbox for the injection layer (src/inject/):
//
//   inject_replay                          demo differential sweep
//   inject_replay --check-plan FILE        parse FILE, echo the canonical
//                                          form (exit 1 on a parse error;
//                                          tools/docs_check.sh uses this to
//                                          validate docs/INJECTION.md)
//   inject_replay --case SEED ORDINAL      replay one differential case
//                                          and print each runtime's verdict
//   inject_replay --sweep SEED CASES [JOBS] sweep ordinals [0, CASES),
//                                          CASES >= 1, JOBS in
//                                          [0, da::kMaxJobs] (0 = all
//                                          cores, default 4)
//
// Exit status is 0 iff every replayed case agreed across the sim,
// threaded and event runtimes.

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "inject/differ.hpp"
#include "inject/fault_plan.hpp"
#include "util/parse.hpp"

namespace {

int check_plan(const char* path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "inject_replay: cannot open %s\n", path);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const auto plan = da::inject::FaultPlan::parse(text.str());
  if (!plan.has_value()) {
    std::fprintf(stderr, "inject_replay: %s: %s\n", path,
                 plan.error().to_string().c_str());
    return 1;
  }
  if (const auto problem = plan->validate(64)) {
    std::fprintf(stderr, "inject_replay: %s: %s\n", path, problem->c_str());
    return 1;
  }
  std::printf("# canonical form of %s\n%s", path, plan->serialize().c_str());
  return 0;
}

int replay_case(std::uint64_t seed, std::uint64_t ordinal) {
  const da::inject::DifferentialCase c = da::inject::draw_case(seed, ordinal);
  std::printf("case %llu/%llu: %s\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(ordinal),
              c.to_string().c_str());
  const da::inject::DifferentialReport report = da::inject::run_differential(c);
  std::printf("  sim      verdict %s  (%zu msgs)\n", report.sim.verdict.c_str(),
              report.sim.messages_sent);
  std::printf("  threaded verdict %s  (%zu msgs)\n",
              report.threaded.verdict.c_str(), report.threaded.messages_sent);
  std::printf("  event    verdict %s  (%zu msgs)\n",
              report.event.verdict.c_str(), report.event.messages_sent);
  if (report.ok()) {
    std::printf("  runtimes agree: artifacts byte-identical (%zu bytes)\n",
                report.sim.artifact.size());
    return 0;
  }
  std::printf("  MISMATCH: %s\n", report.detail.c_str());
  return 1;
}

int sweep(std::uint64_t seed, std::uint64_t cases, int jobs) {
  const da::inject::DifferentialSweepResult result =
      da::inject::sweep_differential(seed, cases, jobs);
  std::printf("sweep seed=%llu over %llu cases (%llu executions, jobs=%d)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(result.cases),
              static_cast<unsigned long long>(result.executions), jobs);
  if (!result.first_mismatch.has_value()) {
    std::puts("all cases byte-identical across sim/threaded/event");
    return 0;
  }
  std::printf("FIRST MISMATCH at ordinal %llu:\n  %s\n",
              static_cast<unsigned long long>(*result.first_mismatch),
              result.detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const da::ArgReader reader(
      "inject_replay",
      "usage: inject_replay [--check-plan FILE | --case SEED ORDINAL | "
      "--sweep SEED CASES [JOBS]]");
  const std::string_view mode = argc > 1 ? argv[1] : "";
  const std::vector<std::string_view> args = reader.read(argc, argv, 2, 3);
  const auto u64 = [&](const char* what, std::size_t i, std::uint64_t min) {
    return reader.number(what, args[i], min,
                         std::numeric_limits<std::uint64_t>::max());
  };
  if (mode == "--check-plan" && args.size() == 1) {
    return check_plan(args[0].data());
  }
  if (mode == "--case" && args.size() == 2) {
    const std::uint64_t seed = u64("--case SEED", 0, 0);
    return replay_case(seed, u64("--case ORDINAL", 1, 0));
  }
  if (mode == "--sweep" && args.size() >= 2) {
    const std::uint64_t seed = u64("--sweep SEED", 0, 0);
    const std::uint64_t cases = u64("--sweep CASES", 1, 1);
    return sweep(seed, cases,
                 args.size() == 3 ? reader.number("--sweep JOBS", args[2], 0,
                                                  da::kMaxJobs)
                                  : 4);
  }
  if (argc > 1) {
    reader.refuse("wrong arguments for `" + std::string(mode) + "`");
  }
  // Demo: one detailed case, then a short sweep across all six protocols.
  if (replay_case(2026, 0) != 0) return 1;
  std::puts("");
  return sweep(2026, 12, 4);
}
