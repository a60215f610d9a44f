#include "service/metrics.hpp"

namespace srumma::service {

trace::NumberMap metrics_map(const ServiceMetrics& m) {
  return {
      {"jobs_submitted", static_cast<double>(m.submitted)},
      {"jobs_accepted", static_cast<double>(m.accepted)},
      {"jobs_rejected", static_cast<double>(m.rejected)},
      {"jobs_completed", static_cast<double>(m.completed)},
      {"jobs_failed", static_cast<double>(m.failed)},
      {"window_s", m.window},
      {"jobs_per_s", m.jobs_per_s},
      {"latency_p50_s", m.p50_latency},
      {"latency_p99_s", m.p99_latency},
      {"mean_wait_s", m.mean_wait},
      {"utilization", m.utilization},
      {"deadline_misses", static_cast<double>(m.deadline_misses)},
      {"batches", static_cast<double>(m.batches)},
      {"retries", static_cast<double>(m.retries)},
  };
}

}  // namespace srumma::service
