#pragma once
// Post-run execution profile: where each rank's virtual time went and how
// busy the contended resources were.  The production-debugging counterpart
// of MultiplyResult's aggregate view — this is what you look at when a
// platform model behaves unexpectedly.  print_gantt draws the same run's
// tracer spans over time, which shows the pipeline at work: where SRUMMA
// hides its gets, where the first (unhidden) task sits, and where a
// message-passing baseline convoys.

#include <iosfwd>

#include "runtime/team.hpp"
#include "trace/tracer.hpp"

namespace srumma {

/// Per-rank time breakdown table (compute / comm issued / wait / noise /
/// steal / idle) plus per-node NIC and per-domain memory utilization,
/// relative to the team's makespan.  Call after Team::run completes (never
/// concurrently with one).  `max_rows` caps the per-rank section (the
/// extrema rows are always included).
void print_profile(std::ostream& os, Team& team, int max_rows = 16);

/// ASCII Gantt of the tracer's spans: one row per rank (up to max_ranks),
/// `width` virtual-time cells across [t0, t1]; each cell shows the glyph
/// that covers most of it — C compute, G get, P put/accumulate, W wait,
/// N noise, B barrier — and '.' when idle.  Other phases (multiply/task
/// containers, cache, message, adoption and service spans) are not drawn.
/// Pass t1 <= t0 to span [0, latest end of a drawn span].  Call when the
/// recording ranks are quiescent.
void print_gantt(std::ostream& os, const trace::Tracer& tracer,
                 double t0 = 0.0, double t1 = 0.0, int width = 100,
                 int max_ranks = 16);

}  // namespace srumma
