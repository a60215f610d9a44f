#include "trace/report.hpp"

#include <sstream>

namespace srumma {

TraceCounters trace_delta(const TraceCounters& end, const TraceCounters& start) {
  TraceCounters d;
#define SRUMMA_COUNTER_DELTA(type, f, agg) \
  d.f = CounterAgg::agg == CounterAgg::Sum ? end.f - start.f : end.f;
  SRUMMA_TRACE_COUNTERS(SRUMMA_COUNTER_DELTA)
#undef SRUMMA_COUNTER_DELTA
  return d;
}

MultiplyResult collect_result(Rank& me, double start_vt,
                              const TraceCounters& my_start, double flops) {
  Team& team = me.team();
  // Exit barrier: equalizes clocks so elapsed is the true makespan.
  me.barrier();
  team.trace_board(me.id()) = trace_delta(me.trace(), my_start);
  // The last rank to arrive sums the boards in rank order into the team's
  // one sum slot before anyone leaves: one O(P) reduction, not P of them.
  team.barrier_wait(me, [&team] {
    TraceCounters total;
    for (int rank = 0; rank < team.size(); ++rank)
      total += team.trace_board(rank);
    team.trace_sum() = total;
  });

  MultiplyResult r;
  r.elapsed = me.clock().now() - start_vt;
  r.trace = team.trace_sum();
  r.gflops = r.elapsed > 0.0 ? flops / r.elapsed / 1e9 : 0.0;
  r.overlap = r.trace.overlap();
  // One more barrier so no rank races ahead and overwrites its board slot
  // or the sum in a subsequent collective while slower ranks still copy it.
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
