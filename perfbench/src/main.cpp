// perfbench: the repository's end-to-end benchmark (see perfbench/README.md).
//
//   perfbench --workload certify|service|frontend|replay --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 runs the workload's timed closed loop for S seconds, in
// segments that each start from a fresh set-up (set-up time is their
// median), and prints the end-to-end metrics, read at each operation's
// fast end (see Pass).
// --trace 1 is the separate traced run: layer probes plus an untraced
// and a traced pass of every workload, printing the
// per-layer metrics and writing the benchmark's own spans to FILE. The
// last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output check passed.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>

#include "probes.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 5;
constexpr std::array<std::string_view, 4> kWorkloads{"certify", "service",
                                                     "frontend", "replay"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] - '0';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload &&
         std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) !=
             kWorkloads.end();
}

/// Peak resident set of this process image (VmHWM). Unlike getrusage's
/// ru_maxrss it is not inherited across exec from the launching process.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(status);
  return kib / 1024.0;
}

/// Prints the result line; returns the process exit code.
int finish(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const Metrics& metrics) {
  std::string json = "{\"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    double value = m.value;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      correct = false;
      value = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  correct = correct && failed == 0;
  json = "{\"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1)) +
         ", \"failed\": " + std::to_string(failed) + ", " + json.substr(1) +
         "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int run_end_to_end(const Args& args) {
  // The timed loop runs in kSetups equal segments, each on a freshly set-up
  // workload (constructed, caches filled, one checked warm operation), so
  // the set-ups are spread over the run as its rounds are instead of
  // meeting one burst of load from another tenant together. Only one
  // instance is alive at a time.
  std::vector<double> setup_s;
  Budget budget;
  budget.seconds = args.seconds / kSetups;
  budget.hard_seconds = 120.0 / kSetups;
  Pass pass;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    const std::unique_ptr<Workload> workload =
        make_workload(args.workload, args.seed);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    pass.append(workload->run(budget));
  }
  if (!pass.failure.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", pass.failure.c_str());
  }
  Metrics metrics;
  metrics.put("setup_s", median(setup_s), "s");
  metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
  metrics.put("ops_per_s", pass.throughput(), "1/s");
  metrics.put("op_ms.p50", pass.fast_op_ms(), "ms");
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu operations, %zu rounds\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), pass.op_ms.size(),
               pass.rounds());
  return finish(true, pass.attempted, pass.failed, metrics);
}

int run_traced(const Args& args) {
  Metrics metrics;
  const ProtocolCosts protocols = probe_protocols(args.seed);
  metrics.put("protocols.vote_ns", protocols.vote_ns, "ns");
  metrics.put("protocols.eig_resolve_us.n6d2", protocols.eig_n6d2_us, "us");
  metrics.put("protocols.eig_resolve_us.n7d3", protocols.eig_n7d3_us, "us");
  const ShapeCost c612 =
      probe_shape(Shape{ShapeKind::kByz, da::Config{6, 1, 2}, {1}});
  metrics.put("sim.snapshot_us", c612.snapshot_us, "us");
  metrics.put("sim.restore_us", c612.restore_us, "us");
  metrics.put("sim.dispatch_us", c612.dispatch_us, "us");
  metrics.put("sim.process_round_us", c612.process_round_us, "us");
  metrics.put("core.check_us", c612.check_us, "us");

  // Every workload's layers, so each traced run reports the full set.
  Budget budget;
  budget.seconds = std::max(0.5, args.seconds / 8.0);
  budget.hard_seconds = 30.0;
  Tracer tracer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const std::string_view name : kWorkloads) {
    const auto workload = make_workload(name, args.seed);
    const Pass pass = workload->trace(budget, tracer, metrics);
    attempted += pass.attempted;
    failed += pass.failed;
    if (!pass.failure.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", pass.failure.c_str());
    }
  }
  if (!args.trace_out.empty() && !tracer.write_jsonl(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
    return finish(false, attempted, failed + 1, metrics);
  }
  std::fprintf(stderr, "perfbench: %zu spans recorded\n",
               tracer.spans().size());
  return finish(true, attempted, failed, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload certify|service|frontend|replay "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  try {
    return args.trace == 1 ? run_traced(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return finish(false, 1, 1, Metrics{});
  }
}
