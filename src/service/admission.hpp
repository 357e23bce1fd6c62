#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

namespace da::service {

/// Class-aware admission control for the agreement service
/// (docs/SERVICE.md §"Admission classes"): every arriving job carries a
/// priority class and an optional relative deadline, the wait queue is a
/// deterministic priority structure (class-major, FIFO within a class),
/// and overload shedding generalizes `kShedOldest` to
/// shed-lowest-class-first. Everything here runs on the event-loop
/// thread only, so plain containers suffice; determinism follows from
/// the strict (class, arrival-order) total order.

/// Priority class of one job. Lower enumerator = higher priority: kHigh
/// jobs admit ahead of kNormal ahead of kLow, and shedding consumes the
/// classes in the opposite order.
enum class AdmissionClass : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

inline constexpr int kAdmissionClassCount = 3;

[[nodiscard]] constexpr int index_of(AdmissionClass cls) {
  return static_cast<int>(cls);
}

[[nodiscard]] const char* to_string(AdmissionClass cls);

/// Parses "high" / "normal" / "low" (the `service_demo --class`
/// vocabulary); nullopt on anything else.
[[nodiscard]] std::optional<AdmissionClass> parse_admission_class(
    std::string_view name);

/// Sentinel for "no deadline" (`QueuedJob::deadline_at`).
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// One waiting job, by the service's local job index. `deadline_at` is
/// the absolute virtual time after which admission is pointless
/// (`kNoDeadline` when the job's template has none); `width` is the slot
/// width the job will occupy, kept here so the queue can answer the
/// least-loaded router's "how much work is parked" question in O(1).
struct QueuedJob {
  std::uint64_t job = 0;
  double deadline_at = kNoDeadline;
  int width = 1;
};

/// The service's wait queue: one FIFO per class, totally ordered by
/// (class, arrival order). All mutation happens on the event-loop
/// thread. Popping, shedding, expiring and `clear` keep every class's
/// storage, so a warm queue allocates nothing.
class AdmissionQueue {
 public:
  void clear();

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t size_of(AdmissionClass cls) const {
    return by_class_[static_cast<std::size_t>(index_of(cls))].size();
  }
  /// Total slot width parked in the queue (for least-loaded routing).
  [[nodiscard]] int queued_width() const { return queued_width_; }

  /// True when some queued job has class `cls` or higher — an arriving
  /// job of class `cls` must queue behind it (per-class FIFO order is
  /// part of the determinism contract; only *lower* classes may be
  /// overtaken).
  [[nodiscard]] bool blocks(AdmissionClass cls) const;

  void push(AdmissionClass cls, const QueuedJob& job);

  /// Admission head: the oldest job of the highest occupied class.
  /// Callable only when !empty().
  [[nodiscard]] const QueuedJob& front() const;
  void pop_front();

  /// Overload victim: the *oldest* job of the *lowest* occupied class
  /// (the shed-lowest-class-first generalization of kShedOldest).
  /// Callable only when !empty().
  QueuedJob pop_shed_victim();

  /// Removes every queued job whose deadline passed strictly before
  /// `now` and hands it to `fn(AdmissionClass, QueuedJob)` in
  /// deterministic (class-major, FIFO) order. O(1) when nothing queued
  /// carries a deadline.
  template <typename Fn>
  void expire(double now, Fn&& fn) {
    if (with_deadline_ == 0) return;
    for (int c = 0; c < kAdmissionClassCount; ++c) {
      Fifo& q = by_class_[static_cast<std::size_t>(c)];
      for (std::size_t i = q.head; i < q.jobs.size();) {
        if (q.jobs[i].deadline_at < now) {
          const QueuedJob victim = q.jobs[i];
          q.jobs.erase(q.jobs.begin() + static_cast<std::ptrdiff_t>(i));
          --size_;
          --with_deadline_;
          queued_width_ -= victim.width;
          fn(static_cast<AdmissionClass>(c), victim);
        } else {
          ++i;
        }
      }
    }
  }

 private:
  /// One class's FIFO: a vector read from `head`, so popping keeps the
  /// storage. Compacted once the head passes half the size, so a queue
  /// that never drains stays bounded.
  struct Fifo {
    std::vector<QueuedJob> jobs;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const { return head == jobs.size(); }
    [[nodiscard]] std::size_t size() const { return jobs.size() - head; }
    [[nodiscard]] const QueuedJob& front() const { return jobs[head]; }
    void clear() {
      jobs.clear();  // keeps capacity
      head = 0;
    }
    QueuedJob pop_front();
  };

  std::array<Fifo, kAdmissionClassCount> by_class_{};
  std::size_t size_ = 0;
  std::size_t with_deadline_ = 0;
  int queued_width_ = 0;
};

}  // namespace da::service
