#include "trace/metrics_json.hpp"

#include <fstream>
#include <sstream>

#include "trace/json.hpp"
#include "util/env.hpp"

namespace srumma::trace {

namespace {

std::string num(double v) {
  std::ostringstream os;
  // 17 significant digits: doubles round-trip exactly, so cross-mode
  // bitwise-identity checks (bench_scale pooled vs threads) can compare
  // serialized metrics directly.
  os.precision(17);
  os << v;
  return os.str();
}

std::string num(std::uint64_t v) { return std::to_string(v); }

// wall / virtual; 0 when the row has no virtual-time denominator.
double wall_per_vs(double wall_seconds, double virtual_seconds) {
  return virtual_seconds > 0.0 ? wall_seconds / virtual_seconds : 0.0;
}

void emit_map(std::ostream& os, const NumberMap& m) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ",") << json_string(k) << ":" << num(v);
    first = false;
  }
  os << "}";
}

}  // namespace

std::string counters_json(const TraceCounters& t) {
  std::ostringstream os;
  const char* sep = "{";
#define SRUMMA_COUNTER_JSON(type, name, agg)   \
  os << sep << "\"" #name "\":" << num(t.name); \
  sep = ",";
  SRUMMA_TRACE_COUNTERS(SRUMMA_COUNTER_JSON)
#undef SRUMMA_COUNTER_JSON
  os << "}";
  return os.str();
}

void MetricsLog::add(const std::string& label, const MultiplyResult& r,
                     NumberMap params, double wall_seconds) {
  Row row;
  row.label = label;
  row.params = std::move(params);
  row.metrics = {{"elapsed_s", r.elapsed},
                 {"gflops", r.gflops},
                 {"overlap", r.overlap},
                 {"wall_seconds", wall_seconds},
                 {"wall_per_virtual_second", wall_per_vs(wall_seconds, r.elapsed)}};
  row.counters = r.trace;
  rows_.push_back(std::move(row));
}

void MetricsLog::add_metric(const std::string& label, const std::string& metric,
                            double value, NumberMap params, double wall_seconds,
                            double virtual_seconds) {
  add_metrics(label, {{metric, value}}, std::move(params), wall_seconds,
              virtual_seconds);
}

void MetricsLog::add_metrics(const std::string& label, NumberMap metrics,
                             NumberMap params, double wall_seconds,
                             double virtual_seconds) {
  Row row;
  row.label = label;
  row.params = std::move(params);
  row.metrics = std::move(metrics);
  row.metrics.emplace_back("wall_seconds", wall_seconds);
  row.metrics.emplace_back("wall_per_virtual_second",
                           wall_per_vs(wall_seconds, virtual_seconds));
  rows_.push_back(std::move(row));
}

std::string MetricsLog::json() const {
  std::ostringstream os;
  os << "{\"schema\":\"srumma-bench-metrics/1\",\"bench\":"
     << json_string(bench_) << ",\"rows\":[";
  bool first = true;
  for (const Row& row : rows_) {
    os << (first ? "" : ",") << "\n  {\"label\":" << json_string(row.label)
       << ",\"params\":";
    emit_map(os, row.params);
    os << ",\"metrics\":";
    emit_map(os, row.metrics);
    if (row.counters) {
      os << ",\"counters\":" << counters_json(*row.counters);
    }
    os << "}";
    first = false;
  }
  os << "\n]}\n";
  return os.str();
}

bool MetricsLog::write_file(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << json();
  return static_cast<bool>(f);
}

bool MetricsLog::write_env() const {
  const auto path = env::text("SRUMMA_BENCH_JSON");
  return !path || write_file(*path);
}

}  // namespace srumma::trace
