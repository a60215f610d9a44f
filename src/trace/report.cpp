#include "trace/report.hpp"

#include <sstream>

namespace srumma {

// Trips when TraceCounters grows: every field must be handled in
// trace_delta below, operator+= (vtime/trace_counters.hpp) and
// counters_json (trace/metrics_json.cpp), with its SUM/MAX aggregation
// documented on the field.
static_assert(sizeof(TraceCounters) == 39 * sizeof(double),
              "TraceCounters changed — update trace_delta, operator+=, "
              "counters_json and the per-field aggregation comments");

TraceCounters trace_delta(const TraceCounters& end, const TraceCounters& start) {
  TraceCounters d;
  d.time_compute = end.time_compute - start.time_compute;
  d.gemm_calls = end.gemm_calls - start.gemm_calls;
  d.flops = end.flops - start.flops;
  d.time_comm = end.time_comm - start.time_comm;
  d.time_wait = end.time_wait - start.time_wait;
  d.time_noise = end.time_noise - start.time_noise;
  d.bytes_shm = end.bytes_shm - start.bytes_shm;
  d.bytes_remote = end.bytes_remote - start.bytes_remote;
  d.bytes_msg = end.bytes_msg - start.bytes_msg;
  d.gets = end.gets - start.gets;
  d.puts = end.puts - start.puts;
  d.sends = end.sends - start.sends;
  d.recvs = end.recvs - start.recvs;
  d.direct_tasks = end.direct_tasks - start.direct_tasks;
  d.copy_tasks = end.copy_tasks - start.copy_tasks;
  // High-water marks are not differenced; the delta carries the end value.
  d.buffer_bytes_peak = end.buffer_bytes_peak;
  d.faults_injected = end.faults_injected - start.faults_injected;
  d.faults_corrupted = end.faults_corrupted - start.faults_corrupted;
  d.faults_delayed = end.faults_delayed - start.faults_delayed;
  d.rma_retries = end.rma_retries - start.rma_retries;
  d.rma_op_timeouts = end.rma_op_timeouts - start.rma_op_timeouts;
  d.rma_domain_dead = end.rma_domain_dead - start.rma_domain_dead;
  d.task_requeues = end.task_requeues - start.task_requeues;
  d.task_reissues = end.task_reissues - start.task_reissues;
  d.shm_fallbacks = end.shm_fallbacks - start.shm_fallbacks;
  d.checksum_redos = end.checksum_redos - start.checksum_redos;
  d.time_recovery = end.time_recovery - start.time_recovery;
  d.cache_hits = end.cache_hits - start.cache_hits;
  d.cache_joins = end.cache_joins - start.cache_joins;
  d.cache_misses = end.cache_misses - start.cache_misses;
  d.cache_bypasses = end.cache_bypasses - start.cache_bypasses;
  d.cache_evictions = end.cache_evictions - start.cache_evictions;
  d.cache_rearms = end.cache_rearms - start.cache_rearms;
  d.cache_refetches = end.cache_refetches - start.cache_refetches;
  d.cache_bytes_saved = end.cache_bytes_saved - start.cache_bytes_saved;
  d.engine_tasks = end.engine_tasks - start.engine_tasks;
  d.tasks_stolen = end.tasks_stolen - start.tasks_stolen;
  d.steals_denied = end.steals_denied - start.steals_denied;
  d.tasks_adopted = end.tasks_adopted - start.tasks_adopted;
  return d;
}

MultiplyResult collect_result(Rank& me, double start_vt,
                              const TraceCounters& my_start, double flops) {
  Team& team = me.team();
  // Exit barrier: equalizes clocks so elapsed is the true makespan.
  me.barrier();
  team.trace_board(me.id()) = trace_delta(me.trace(), my_start);
  me.barrier();

  MultiplyResult r;
  r.elapsed = me.clock().now() - start_vt;
  for (int rank = 0; rank < team.size(); ++rank) {
    r.trace += team.trace_board(rank);
  }
  r.gflops = r.elapsed > 0.0 ? flops / r.elapsed / 1e9 : 0.0;
  r.overlap = r.trace.overlap();
  // One more barrier so no rank races ahead and overwrites its board slot
  // in a subsequent collective while slower ranks are still summing.
  me.barrier();
  return r;
}

std::string describe(const MultiplyResult& r) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << r.gflops << " GFLOP/s in " << r.elapsed * 1e3 << " ms, overlap "
     << r.overlap * 100.0 << "%, traffic shm "
     << static_cast<double>(r.trace.bytes_shm) / 1e6 << " MB / remote "
     << static_cast<double>(r.trace.bytes_remote) / 1e6 << " MB / msg "
     << static_cast<double>(r.trace.bytes_msg) / 1e6 << " MB";
  const TraceCounters& t = r.trace;
  if (t.faults_injected + t.faults_corrupted + t.faults_delayed +
          t.rma_retries + t.rma_op_timeouts + t.task_requeues +
          t.task_reissues + t.shm_fallbacks + t.checksum_redos >
      0) {
    os << ", recovery: " << t.faults_injected << " failed / "
       << t.faults_corrupted << " corrupted / " << t.faults_delayed
       << " delayed ops, " << t.rma_retries << " retries ("
       << t.rma_op_timeouts << " op-timeouts), " << t.task_requeues
       << " task requeues, " << t.task_reissues << " fetch reissues, "
       << t.shm_fallbacks << " shm fallbacks, "
       << t.checksum_redos << " checksum redos, "
       << t.time_recovery * 1e3 << " ms in recovery";
  }
  if (t.cache_hits + t.cache_joins + t.cache_misses + t.cache_rearms > 0) {
    os << ", cache: " << t.cache_hits << " hits / " << t.cache_joins
       << " joins / " << t.cache_misses << " misses ("
       << t.cache_evictions << " evictions, " << t.cache_rearms
       << " rearms, " << t.cache_refetches << " refetches), saved "
       << static_cast<double>(t.cache_bytes_saved) / 1e6 << " MB remote";
  }
  if (t.engine_tasks + t.tasks_stolen > 0) {
    os << ", engine: " << t.engine_tasks << " owner tasks / "
       << t.tasks_stolen << " stolen (" << t.steals_denied
       << " steals denied)";
  }
  if (t.rma_domain_dead + t.tasks_adopted > 0) {
    os << ", fail-stop: " << t.rma_domain_dead << " ops drained dead, "
       << t.tasks_adopted << " tasks adopted";
  }
  return os.str();
}

}  // namespace srumma
