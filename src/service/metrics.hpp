#pragma once
// Machine-readable request-plane metrics (docs/SERVICE.md §8).
//
// bench_service writes one "srumma-bench-metrics/1" row per experiment arm
// (trace/metrics_json.hpp), MetricsLog::add_metrics(label, metrics_map(m),
// params, wall_seconds, m.window), so the service rows carry the same
// schema and wall-speed fields as every other bench:
//
//   { "label":   "<experiment arm>",
//     "params":  { "<name>": <number>, ... },   // workload inputs
//     "metrics": { "jobs_per_s": ..., "latency_p50_s": ...,
//                  "latency_p99_s": ..., "utilization": ..., ...,
//                  "wall_seconds": ..., "wall_per_virtual_second": ... } }
//
// Fields are only ever added, never renamed, so BENCH_service.json files
// from different PRs stay comparable (the bench-metrics rule).

#include "service/service.hpp"
#include "trace/metrics_json.hpp"

namespace srumma::service {

/// Every ServiceMetrics field as (key, value) pairs — the "metrics" block.
[[nodiscard]] trace::NumberMap metrics_map(const ServiceMetrics& m);

}  // namespace srumma::service
