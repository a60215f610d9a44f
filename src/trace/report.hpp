#pragma once
// Experiment instrumentation: counter deltas, collective result assembly,
// and the MultiplyResult record every parallel multiply returns.

#include <string>

#include "runtime/team.hpp"
#include "vtime/trace_counters.hpp"

namespace srumma {

/// Field-wise end - start (both snapshots of the same rank's counters).
[[nodiscard]] TraceCounters trace_delta(const TraceCounters& end,
                                        const TraceCounters& start);

/// Outcome of one collective matrix multiplication, identical on all ranks.
struct MultiplyResult {
  double elapsed = 0.0;   ///< virtual makespan, barrier-to-barrier (s)
  double gflops = 0.0;    ///< 2*m*n*k / elapsed / 1e9
  double overlap = 0.0;   ///< achieved communication/computation overlap
  TraceCounters trace;    ///< team-aggregated counters for the operation
};

/// Collective epilogue: publish my delta since `my_start`, synchronize, and
/// fold all ranks' deltas into a MultiplyResult.  `start_vt` must be the
/// clock value right after the operation's entry barrier and `flops` the
/// total operation flops (2*m*n*k).  Ends with the exit barrier included in
/// `elapsed`.  The deltas are summed once per call, in rank order, by the
/// last rank to reach the second of its three barriers (into
/// Team::trace_sum); every rank still returns the full, identical result.
[[nodiscard]] MultiplyResult collect_result(Rank& me, double start_vt,
                                            const TraceCounters& my_start,
                                            double flops);

/// One-line human-readable summary (GFLOP/s, overlap, traffic split).
[[nodiscard]] std::string describe(const MultiplyResult& r);

}  // namespace srumma
