#include "trace/metrics_json.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

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

// wall / virtual; 0 when the row has no virtual-time denominator.
double wall_per_vs(double wall_seconds, double virtual_seconds) {
  return virtual_seconds > 0.0 ? wall_seconds / virtual_seconds : 0.0;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void emit_map(std::ostream& os, const NumberMap& m) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ",") << "\"" << escape(k) << "\":" << num(v);
    first = false;
  }
  os << "}";
}

}  // namespace

std::string counters_json(const TraceCounters& t) {
  // Keep in lockstep with TraceCounters (the sizeof guard in
  // trace/report.cpp trips when a field is added without updating the
  // serializers).
  std::ostringstream os;
  os << "{"
     << "\"time_compute\":" << num(t.time_compute)
     << ",\"gemm_calls\":" << t.gemm_calls
     << ",\"flops\":" << num(t.flops)
     << ",\"time_comm\":" << num(t.time_comm)
     << ",\"time_wait\":" << num(t.time_wait)
     << ",\"time_noise\":" << num(t.time_noise)
     << ",\"bytes_shm\":" << t.bytes_shm
     << ",\"bytes_remote\":" << t.bytes_remote
     << ",\"bytes_msg\":" << t.bytes_msg
     << ",\"gets\":" << t.gets
     << ",\"puts\":" << t.puts
     << ",\"sends\":" << t.sends
     << ",\"recvs\":" << t.recvs
     << ",\"direct_tasks\":" << t.direct_tasks
     << ",\"copy_tasks\":" << t.copy_tasks
     << ",\"buffer_bytes_peak\":" << t.buffer_bytes_peak
     << ",\"faults_injected\":" << t.faults_injected
     << ",\"faults_corrupted\":" << t.faults_corrupted
     << ",\"faults_delayed\":" << t.faults_delayed
     << ",\"rma_retries\":" << t.rma_retries
     << ",\"rma_op_timeouts\":" << t.rma_op_timeouts
     << ",\"rma_domain_dead\":" << t.rma_domain_dead
     << ",\"task_requeues\":" << t.task_requeues
     << ",\"task_reissues\":" << t.task_reissues
     << ",\"shm_fallbacks\":" << t.shm_fallbacks
     << ",\"checksum_redos\":" << t.checksum_redos
     << ",\"time_recovery\":" << num(t.time_recovery)
     << ",\"cache_hits\":" << t.cache_hits
     << ",\"cache_joins\":" << t.cache_joins
     << ",\"cache_misses\":" << t.cache_misses
     << ",\"cache_bypasses\":" << t.cache_bypasses
     << ",\"cache_evictions\":" << t.cache_evictions
     << ",\"cache_rearms\":" << t.cache_rearms
     << ",\"cache_refetches\":" << t.cache_refetches
     << ",\"cache_bytes_saved\":" << t.cache_bytes_saved
     << ",\"engine_tasks\":" << t.engine_tasks
     << ",\"tasks_stolen\":" << t.tasks_stolen
     << ",\"steals_denied\":" << t.steals_denied
     << ",\"tasks_adopted\":" << t.tasks_adopted
     << "}";
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
  os << "{\"schema\":\"srumma-bench-metrics/1\",\"bench\":\""
     << escape(bench_) << "\",\"rows\":[";
  bool first = true;
  for (const Row& row : rows_) {
    os << (first ? "" : ",") << "\n  {\"label\":\"" << escape(row.label)
       << "\",\"params\":";
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

std::string MetricsLog::env_path() {
  const char* p = std::getenv("SRUMMA_BENCH_JSON");
  return p != nullptr ? std::string(p) : std::string();
}

bool MetricsLog::write_env() const {
  const std::string path = env_path();
  if (path.empty()) return true;
  return write_file(path);
}

}  // namespace srumma::trace
