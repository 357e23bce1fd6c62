#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace da::obs {

/// Machine-readable bench output: give every bench binary a uniform
/// `--json <path>` flag that writes the run as one JSON document with the
/// stable schema
///
///   { "bench": ..., "seed": ..., "jobs": ..., "git_describe": ...,
///     "tables": [ {"name", "header", "rows"} ... ],
///     "metrics": { "counters": {...}, "gauges": {...},
///                  "quantiles": {...} } }
///
/// (documented with an example in docs/OBSERVABILITY.md). Usage:
///
///   int main(int argc, char** argv) {
///     da::obs::BenchReporter reporter("bench_foo", argc, argv);
///     ...print tables as before (captured automatically)...
///     return reporter.finish();
///   }
///
/// The constructor reads the bench's whole command line with a
/// da::ArgReader — `--json FILE`, `--smoke` and `--jobs N` (0..kMaxJobs,
/// 0 = all cores), each also as `--flag=value` — and refuses anything
/// else with exit 2. It installs a Table print listener so every table
/// the bench prints is captured without further plumbing. `--smoke` is a
/// convention for tiny-parameter runs wired into ctest's bench-smoke
/// label; benches that scale work query `smoke()`, sweeping benches
/// `jobs()`.
class BenchReporter {
 public:
  /// `bench_name` is the value of the "bench" field and the program name
  /// of a refusal.
  BenchReporter(std::string bench_name, int argc, char** argv);
  ~BenchReporter();

  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  /// True when `--smoke` was passed: run with tiny parameters.
  [[nodiscard]] bool smoke() const { return smoke_; }

  /// The `--jobs` value (default 1), also the report's "jobs" field.
  [[nodiscard]] int jobs() const { return jobs_; }

  /// True when `--json` was passed (finish() will write a report).
  [[nodiscard]] bool json_requested() const { return !json_path_.empty(); }

  void set_seed(std::uint64_t seed) { seed_ = seed; }

  /// Adds a table explicitly (for data the bench never print()s).
  void add_table(const Table& table);

  /// Writes the JSON report (when `--json` was given), re-reads and
  /// re-parses the emitted file, and validates it against the schema.
  /// Returns `status` on success; 1 if the report could not be written or
  /// failed self-validation. Call as the bench's `return` expression.
  [[nodiscard]] int finish(int status = 0);

 private:
  std::string bench_name_;
  std::string json_path_;
  bool smoke_ = false;
  bool finished_ = false;
  std::uint64_t seed_ = 0;
  int jobs_ = 1;
  std::vector<Json> tables_;
};

/// Validates a parsed bench report against the schema above. Returns
/// nothing when every required top-level field is present with the right
/// type, and the first problem otherwise.
[[nodiscard]] std::optional<std::string> validate_bench_schema(
    const Json& report);

/// The current metrics registry contents as the report's "metrics" value.
[[nodiscard]] Json metrics_to_json();

}  // namespace da::obs
