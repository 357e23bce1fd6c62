#include "service/admission.hpp"

#include "util/contracts.hpp"

namespace da::service {

const char* to_string(AdmissionClass cls) {
  switch (cls) {
    case AdmissionClass::kHigh:
      return "high";
    case AdmissionClass::kNormal:
      return "normal";
    case AdmissionClass::kLow:
      return "low";
  }
  return "?";
}

std::optional<AdmissionClass> parse_admission_class(std::string_view name) {
  if (name == "high") return AdmissionClass::kHigh;
  if (name == "normal") return AdmissionClass::kNormal;
  if (name == "low") return AdmissionClass::kLow;
  return std::nullopt;
}

QueuedJob AdmissionQueue::Fifo::pop_front() {
  const QueuedJob job = jobs[head++];
  if (head == jobs.size()) {
    clear();
  } else if (2 * head > jobs.size()) {
    jobs.erase(jobs.begin(), jobs.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  return job;
}

void AdmissionQueue::clear() {
  for (auto& q : by_class_) q.clear();
  size_ = 0;
  with_deadline_ = 0;
  queued_width_ = 0;
}

bool AdmissionQueue::blocks(AdmissionClass cls) const {
  for (int c = 0; c <= index_of(cls); ++c) {
    if (!by_class_[static_cast<std::size_t>(c)].empty()) return true;
  }
  return false;
}

void AdmissionQueue::push(AdmissionClass cls, const QueuedJob& job) {
  by_class_[static_cast<std::size_t>(index_of(cls))].jobs.push_back(job);
  ++size_;
  if (job.deadline_at != kNoDeadline) ++with_deadline_;
  queued_width_ += job.width;
}

const QueuedJob& AdmissionQueue::front() const {
  DA_EXPECTS(size_ > 0);
  for (const auto& q : by_class_) {
    if (!q.empty()) return q.front();
  }
  return by_class_.back().front();  // unreachable
}

void AdmissionQueue::pop_front() {
  DA_EXPECTS(size_ > 0);
  for (auto& q : by_class_) {
    if (q.empty()) continue;
    const QueuedJob job = q.pop_front();
    --size_;
    if (job.deadline_at != kNoDeadline) --with_deadline_;
    queued_width_ -= job.width;
    return;
  }
}

QueuedJob AdmissionQueue::pop_shed_victim() {
  DA_EXPECTS(size_ > 0);
  for (int c = kAdmissionClassCount - 1; c >= 0; --c) {
    auto& q = by_class_[static_cast<std::size_t>(c)];
    if (q.empty()) continue;
    const QueuedJob victim = q.pop_front();
    --size_;
    if (victim.deadline_at != kNoDeadline) --with_deadline_;
    queued_width_ -= victim.width;
    return victim;
  }
  return {};  // unreachable
}

}  // namespace da::service
