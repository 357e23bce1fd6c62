#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// The benchmark's own span recorder. Spans are opened and closed around
/// calls into the library's public functions from the benchmark's code
/// (never inside the library, whose `obs` layer is itself measured), kept
/// in memory, and written out as JSONL once the run is over.
///
/// A span holds its name, wall-clock start and end, its parent (the span
/// open when it started) and the id of the operation it belongs to, so all
/// spans of one cycle/run/case share an op id. Single-threaded by design:
/// the benchmark's timed loop is one thread and opens spans only there.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  struct Span {
    std::uint32_t name = 0;  // index into names()
    std::uint32_t parent = kNoParent;
    std::uint64_t op = 0;
    std::int64_t t0_ns = 0;  // relative to the tracer's construction
    std::int64_t t1_ns = 0;
  };

  Tracer();

  [[nodiscard]] std::uint32_t intern(std::string_view name);
  /// Opens a span as a child of the innermost open span; returns its index.
  std::uint32_t open(std::uint32_t name, std::uint64_t op);
  /// Closes the innermost open span, which must be `index`.
  void close(std::uint32_t index);

  /// Records an already measured interval (used by tests).
  std::uint32_t add(std::uint32_t name, std::uint64_t op, std::uint32_t parent,
                    std::int64_t t0_ns, std::int64_t t1_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

  /// Self time of every span: its duration minus the part of its interval
  /// that its children cover (overlapping children counted once).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  /// Durations (milliseconds) of every span with this name.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;

  /// One JSON object per span: name, op, id, parent, t0/t1 (ns), self (ns).
  bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a null tracer makes it free apart from one branch.
class Scope {
 public:
  Scope(Tracer* tracer, std::uint32_t name, std::uint64_t op)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, op) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

}  // namespace perfbench
