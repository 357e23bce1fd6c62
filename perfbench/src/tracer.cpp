#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::logic_error(what);
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t Tracer::intern(std::string_view name) {
  if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::uint32_t Tracer::open(std::uint32_t name, std::uint64_t op) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.op = op;
  span.t0_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::uint32_t index) {
  require(!open_.empty() && open_.back() == index,
          "Tracer::close: spans must close innermost first");
  spans_[index].t1_ns = now_ns();
  open_.pop_back();
}

std::uint32_t Tracer::add(std::uint32_t name, std::uint64_t op,
                          std::uint32_t parent, std::int64_t t0_ns,
                          std::int64_t t1_ns) {
  require(t0_ns <= t1_ns, "Tracer::add: span ends before it starts");
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{name, parent, op, t0_ns, t1_ns});
  return index;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      children[span.parent].emplace_back(span.t0_ns, span.t1_ns);
    }
  }
  std::vector<std::int64_t> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t run_begin = 0;
    std::int64_t run_end = 0;
    bool in_run = false;
    for (auto [b, e] : kids) {
      b = std::clamp(b, span.t0_ns, span.t1_ns);
      e = std::clamp(e, span.t0_ns, span.t1_ns);
      if (in_run && b <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (in_run) covered += run_end - run_begin;
      run_begin = b;
      run_end = e;
      in_run = true;
    }
    if (in_run) covered += run_end - run_begin;
    out[i] = (span.t1_ns - span.t0_ns) - covered;
  }
  return out;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  const auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const Span& span : spans_) {
    if (span.name == it->second) {
      out.push_back(static_cast<double>(span.t1_ns - span.t0_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%lld,"
                 "\"t0_ns\":%lld,\"t1_ns\":%lld,\"self_ns\":%lld}\n",
                 i, names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.op), parent,
                 static_cast<long long>(s.t0_ns),
                 static_cast<long long>(s.t1_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
