#include "workload.hpp"

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

void Pass::append(const Pass& other) {
  op_ms.insert(op_ms.end(), other.op_ms.begin(), other.op_ms.end());
  cover_ms.insert(cover_ms.end(), other.cover_ms.begin(), other.cover_ms.end());
  ops_per_round = other.ops_per_round;
  work_per_round = other.work_per_round;
  attempted += other.attempted;
  failed += other.failed;
  if (failure.empty()) failure = other.failure;
}

double Pass::throughput() const {
  double round_ms = 0.0;
  for (const double ms : round_percentiles(cover_ms, ops_per_round, 0.10)) {
    round_ms += ms;
  }
  return work_per_round / (round_ms / 1e3);
}

double Pass::fast_op_ms() const {
  return median(round_percentiles(op_ms, ops_per_round, 0.10));
}

namespace {

/// Sets the CPU set of every thread of the process.
void pin_process(const cpu_set_t& set) {
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return;
  while (const dirent* entry = readdir(tasks)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) (void)sched_setaffinity(tid, sizeof set, &set);
  }
  closedir(tasks);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  pin_process(set);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_ % cpus_.size()], &set);
  ++next_;
  pin_process(set);
}

std::uint64_t counter(std::string_view name) {
  return da::obs::MetricsRegistry::global().counter_value(name);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return da::mix64(seed, salt);
}

Budget with_tail(const Budget& budget, double q) {
  Budget out = budget;
  out.min_ops = std::max(out.min_ops, samples_needed(q));
  return out;
}

void put_op_percentiles(Metrics& out, const std::string& prefix,
                        const Pass& pass, double q) {
  out.put(prefix + ".p50", median(pass.op_ms), "ms");
  const std::string name =
      prefix + ".p" + std::to_string(static_cast<int>(q * 100 + 0.5));
  std::optional<double> tail = tail_percentile(pass.op_ms, q);
  if (!tail) {
    // Only when the pass hit its hard time limit first.
    std::fprintf(stderr, "perfbench: %s from %zu samples is the maximum\n",
                 name.c_str(), pass.op_ms.size());
    tail = *std::max_element(pass.op_ms.begin(), pass.op_ms.end());
  }
  out.put(name, *tail, "ms");
}

double overhead_share(const Pass& plain, const Pass& traced) {
  return plain.throughput() / traced.throughput() - 1.0;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "certify") return make_certify(seed);
  if (name == "service") return make_service(seed);
  if (name == "frontend") return make_frontend(seed);
  if (name == "replay") return make_replay(seed);
  return nullptr;
}

}  // namespace perfbench
