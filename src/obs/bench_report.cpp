#include "obs/bench_report.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"

#ifndef DA_GIT_DESCRIBE
#define DA_GIT_DESCRIBE "unknown"
#endif

namespace da::obs {

namespace {

Json table_to_json(const Table& table) {
  Json header = Json::array();
  for (const std::string& cell : table.header()) header.push_back(cell);
  Json rows = Json::array();
  for (const auto& row : table.cells()) {
    Json cells = Json::array();
    for (const std::string& cell : row) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  Json j = Json::object();
  j.set("name", table.name())
      .set("header", std::move(header))
      .set("rows", std::move(rows));
  return j;
}

}  // namespace

Json metrics_to_json() {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  Json counters = Json::object();
  for (const auto& [name, value] : snap.counters) counters.set(name, value);
  Json gauges = Json::object();
  for (const auto& [name, value] : snap.gauges) gauges.set(name, value);
  Json quantiles = Json::object();
  for (const auto& [name, sketch] : snap.quantiles) {
    Json q = Json::object();
    q.set("count", static_cast<std::int64_t>(sketch.count()))
        .set("min", sketch.min())
        .set("max", sketch.max())
        .set("mean", sketch.mean())
        .set("p50", sketch.quantile(0.50))
        .set("p90", sketch.quantile(0.90))
        .set("p99", sketch.quantile(0.99))
        .set("p999", sketch.quantile(0.999));
    quantiles.set(name, std::move(q));
  }
  Json metrics = Json::object();
  metrics.set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("quantiles", std::move(quantiles));
  return metrics;
}

BenchReporter::BenchReporter(std::string bench_name, int* argc, char** argv)
    : bench_name_(std::move(bench_name)) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      json_path_ = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path_ = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke_ = true;
    } else {
      if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < *argc) {
        jobs_ = std::atoi(argv[i + 1]);
      } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
        jobs_ = std::atoi(argv[i] + 7);
      }
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[*argc] = nullptr;
  Table::set_print_listener(
      [this](const Table& table) { tables_.push_back(table_to_json(table)); });
}

BenchReporter::~BenchReporter() {
  if (!finished_) Table::set_print_listener(nullptr);
}

void BenchReporter::add_table(const Table& table) {
  tables_.push_back(table_to_json(table));
}

int BenchReporter::finish(int status) {
  finished_ = true;
  Table::set_print_listener(nullptr);
  if (json_path_.empty()) return status;

  Json tables = Json::array();
  for (Json& t : tables_) tables.push_back(std::move(t));
  Json report = Json::object();
  report.set("bench", bench_name_)
      .set("seed", seed_)
      .set("jobs", jobs_)
      .set("git_describe", DA_GIT_DESCRIBE)
      .set("tables", std::move(tables))
      .set("metrics", metrics_to_json());

  {
    std::ofstream out(json_path_, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", bench_name_.c_str(),
                   json_path_.c_str());
      return 1;
    }
    out << report.dump(2) << '\n';
    if (!out) {
      std::fprintf(stderr, "%s: write to %s failed\n", bench_name_.c_str(),
                   json_path_.c_str());
      return 1;
    }
  }

  // Self-validate: re-read the emitted file and check it parses back into
  // a schema-conformant document, so a formatting regression fails the
  // bench-smoke ctest entries instead of silently rotting the exports.
  std::ifstream in(json_path_, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  const Parsed<Json> parsed = Json::parse(buf.str());
  if (!parsed) {
    std::fprintf(stderr, "%s: emitted JSON does not parse: %s\n",
                 bench_name_.c_str(), parsed.error().to_string().c_str());
    return 1;
  }
  std::string error;
  if (!validate_bench_schema(*parsed, &error)) {
    std::fprintf(stderr, "%s: emitted JSON fails schema check: %s\n",
                 bench_name_.c_str(), error.c_str());
    return 1;
  }
  std::printf("[json report: %s]\n", json_path_.c_str());
  return status;
}

bool validate_bench_schema(const Json& report, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (!report.is_object()) return fail("report is not an object");

  const Json* bench = report.find("bench");
  if (bench == nullptr || !bench->is_string()) {
    return fail("missing string field 'bench'");
  }
  const Json* seed = report.find("seed");
  if (seed == nullptr || !seed->is_integer()) {
    return fail("missing integer field 'seed'");
  }
  const Json* jobs = report.find("jobs");
  if (jobs == nullptr || !jobs->is_integer()) {
    return fail("missing integer field 'jobs'");
  }
  const Json* describe = report.find("git_describe");
  if (describe == nullptr || !describe->is_string()) {
    return fail("missing string field 'git_describe'");
  }

  const Json* tables = report.find("tables");
  if (tables == nullptr || !tables->is_array()) {
    return fail("missing array field 'tables'");
  }
  for (std::size_t i = 0; i < tables->size(); ++i) {
    const Json& table = tables->at(i);
    const std::string where = "tables[" + std::to_string(i) + "]";
    if (!table.is_object()) return fail(where + " is not an object");
    const Json* name = table.find("name");
    if (name == nullptr || !name->is_string()) {
      return fail(where + " missing string 'name'");
    }
    const Json* header = table.find("header");
    if (header == nullptr || !header->is_array()) {
      return fail(where + " missing array 'header'");
    }
    const Json* rows = table.find("rows");
    if (rows == nullptr || !rows->is_array()) {
      return fail(where + " missing array 'rows'");
    }
    for (std::size_t r = 0; r < rows->size(); ++r) {
      if (!rows->at(r).is_array() ||
          rows->at(r).size() != header->size()) {
        return fail(where + ".rows[" + std::to_string(r) +
                    "] does not match header arity");
      }
    }
  }

  const Json* metrics = report.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return fail("missing object field 'metrics'");
  }
  for (const char* section : {"counters", "gauges", "quantiles"}) {
    const Json* s = metrics->find(section);
    if (s == nullptr || !s->is_object()) {
      return fail(std::string("metrics missing object '") + section + "'");
    }
  }
  const Json* quantiles = metrics->find("quantiles");
  for (const auto& [name, q] : quantiles->as_object()) {
    if (!q.is_object()) {
      return fail("quantile '" + name + "' is not an object");
    }
    for (const char* field :
         {"count", "min", "max", "mean", "p50", "p90", "p99", "p999"}) {
      const Json* f = q.find(field);
      if (f == nullptr || !f->is_number()) {
        return fail("quantile '" + name + "' missing number '" + field + "'");
      }
    }
  }
  return true;
}

}  // namespace da::obs
