#include "obs/exposition.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace da::obs {

namespace {

std::string sanitize(const std::string& name) {
  std::string out = "da_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

void append_double(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "NaN";
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[40];
  // %.17g round-trips every double and is deterministic, so the exposition
  // text is a pure function of the snapshot.
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, double value) {
  out += name;
  out += labels;
  out += ' ';
  append_double(out, value);
  out += '\n';
}

void append_type(std::string& out, const std::string& name,
                 const char* type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::string to_exposition(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = sanitize(name);
    append_type(out, metric, "counter");
    out += metric;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = sanitize(name);
    append_type(out, metric, "gauge");
    append_sample(out, metric, "", value);
  }
  for (const auto& [name, sketch] : snapshot.quantiles) {
    const std::string metric = sanitize(name);
    append_type(out, metric, "summary");
    static constexpr std::pair<const char*, double> kQuantiles[] = {
        {"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}, {"0.999", 0.999}};
    for (const auto& [label, q] : kQuantiles) {
      std::string labels = "{quantile=\"";
      labels += label;
      labels += "\"}";
      append_sample(out, metric, labels, sketch.quantile(q));
    }
    append_sample(out, metric + "_sum", "", sketch.sum());
    out += metric + "_count " + std::to_string(sketch.count()) + '\n';
  }
  return out;
}

bool write_exposition(const MetricsSnapshot& snapshot,
                      const std::string& file_path) {
  std::ofstream out(file_path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << to_exposition(snapshot);
  return static_cast<bool>(out);
}

}  // namespace da::obs
