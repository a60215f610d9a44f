#pragma once
// Chrome-trace / Perfetto JSON exporter for the structured tracer.
//
// Produces the Trace Event Format JSON object that chrome://tracing and
// https://ui.perfetto.dev load directly.  Mapping (documented in
// docs/OBSERVABILITY.md):
//   * pid   = physical node, tid = rank — Perfetto groups rank tracks
//     under their node, which is exactly the paper's cluster topology;
//   * CPU phases (multiply/task/dgemm/wait/backoff/...) are "X" complete
//     events — strictly nested in virtual time on each rank's track;
//   * in-flight communication (nbget/nbput/nbacc/send/recv) exports as
//     async "b"/"e" pairs with unique ids, so overlapping transfers
//     stack instead of corrupting the CPU track;
//   * instants (task issue, rearm, fault, retry, ...) are "i" events;
//   * counter tracks (inflight bytes/ops, recovery seconds) are "C"
//     events, one named series per rank.
// Timestamps are *virtual* microseconds (ts = virtual seconds * 1e6).

#include <iosfwd>
#include <string>

#include "trace/tracer.hpp"

namespace srumma::trace {

/// Stream the whole trace as one Chrome-trace JSON object.
void write_chrome_trace(std::ostream& os, const Tracer& tracer);

/// Write to `path`; returns false (after printing nothing) when the file
/// cannot be opened.  An existing file is overwritten.
bool write_chrome_trace_file(const std::string& path, const Tracer& tracer);

}  // namespace srumma::trace
