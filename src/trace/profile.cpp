#include "trace/profile.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "util/error.hpp"
#include "util/table.hpp"

namespace srumma {

namespace {

// Gantt glyphs in ascending character order, so a cell covered equally by
// two glyphs shows the earlier one.
constexpr std::array<char, 6> kGlyphs = {'B', 'C', 'G', 'N', 'P', 'W'};

// Index into kGlyphs of a drawn span; -1 for instants, counters, phases
// not drawn, and zero-length spans (they carry no information).
int glyph_index(const trace::TraceEvent& e) {
  using trace::Phase;
  if (e.type != trace::EvType::Span || e.t1 <= e.t0) return -1;
  switch (e.phase) {
    case Phase::Barrier: return 0;
    case Phase::Compute: return 1;
    case Phase::Get: return 2;
    case Phase::Noise: return 3;
    case Phase::Put:
    case Phase::Acc: return 4;
    case Phase::Wait:
    case Phase::RecoveryWait: return 5;
    default: return -1;
  }
}

}  // namespace

void print_profile(std::ostream& os, Team& team, int max_rows) {
  const double makespan = team.max_clock();
  const MachineModel& mm = team.machine();

  // -- per-rank breakdown ----------------------------------------------------
  std::vector<int> order(static_cast<std::size_t>(team.size()));
  for (int r = 0; r < team.size(); ++r) order[static_cast<std::size_t>(r)] = r;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return team.rank(a).clock().now() > team.rank(b).clock().now();
  });
  if (static_cast<int>(order.size()) > max_rows) {
    // Keep the slowest rows plus the single fastest (the straggler view).
    const int fastest = order.back();
    order.resize(static_cast<std::size_t>(max_rows - 1));
    order.push_back(fastest);
  }

  TableWriter ranks({"rank", "node", "clock ms", "compute %", "comm ms",
                     "wait %", "noise ms", "steal ms"});
  for (int r : order) {
    Rank& rk = team.rank(r);
    const TraceCounters& t = rk.trace();
    const double now = rk.clock().now();
    const double denom = now > 0 ? now : 1.0;
    ranks.add_row({TableWriter::num(static_cast<long long>(r)),
                   TableWriter::num(static_cast<long long>(rk.node())),
                   TableWriter::num(now * 1e3, 2),
                   TableWriter::num(100.0 * t.time_compute / denom, 1),
                   TableWriter::num(t.time_comm * 1e3, 2),
                   TableWriter::num(100.0 * t.time_wait / denom, 1),
                   TableWriter::num(t.time_noise * 1e3, 2),
                   TableWriter::num(rk.clock().steal_total() * 1e3, 2)});
  }
  ranks.print(os, "rank profile (slowest first; makespan " +
                      TableWriter::num(makespan * 1e3, 2) + " ms)");

  // -- resource utilization ----------------------------------------------------
  TableWriter res({"resource", "busy ms", "utilization %"});
  const double denom = makespan > 0 ? makespan : 1.0;
  for (int n = 0; n < mm.num_nodes; ++n) {
    const double out = team.network().nic_out(n).busy_total();
    const double in = team.network().nic_in(n).busy_total();
    if (out == 0.0 && in == 0.0) continue;
    res.add_row({"node " + std::to_string(n) + " NIC out",
                 TableWriter::num(out * 1e3, 2),
                 TableWriter::num(100.0 * out / denom, 1)});
    res.add_row({"node " + std::to_string(n) + " NIC in",
                 TableWriter::num(in * 1e3, 2),
                 TableWriter::num(100.0 * in / denom, 1)});
    if (res.row_count() >= 2 * static_cast<std::size_t>(max_rows)) break;
  }
  for (int d = 0; d < mm.num_domains(); ++d) {
    const double mem = team.network().domain_mem(d).busy_total();
    if (mem == 0.0) continue;
    res.add_row({"domain " + std::to_string(d) + " memory",
                 TableWriter::num(mem * 1e3, 2),
                 TableWriter::num(100.0 * mem / denom, 1)});
  }
  if (res.row_count() > 0) {
    os << "\n";
    res.print(os, "resource utilization");
  }
}

void print_gantt(std::ostream& os, const trace::Tracer& tracer, double t0,
                 double t1, int width, int max_ranks) {
  SRUMMA_REQUIRE(width >= 10, "gantt: width too small");
  double latest = 0.0;
  std::uint64_t dropped = 0;
  for (int r = 0; r < tracer.ranks(); ++r) {
    dropped += tracer.dropped(r);
    for (const trace::TraceEvent& e : tracer.events(r))
      if (glyph_index(e) >= 0) latest = std::max(latest, e.t1);
  }
  if (t1 <= t0) {
    t0 = 0.0;
    t1 = latest;
  }
  if (t1 <= t0) {
    os << "(timeline empty)\n";
  } else {
    const double dt = (t1 - t0) / width;
    os << "timeline [" << t0 * 1e3 << " ms .. " << t1 * 1e3 << " ms], "
       << dt * 1e3 << " ms/cell  (C compute, G get, P put, W wait, N noise, "
          "B barrier, . idle)\n";
    const int shown = std::min(max_ranks, tracer.ranks());
    for (int r = 0; r < shown; ++r) {
      // Covered duration per glyph in each cell; the largest one is drawn.
      std::vector<std::array<double, kGlyphs.size()>> cells(
          static_cast<std::size_t>(width));
      for (const trace::TraceEvent& e : tracer.events(r)) {
        const int glyph = glyph_index(e);
        const double lo = std::max(e.t0, t0);
        const double hi = std::min(e.t1, t1);
        if (glyph < 0 || hi <= lo) continue;
        const int b0 = std::clamp(static_cast<int>((lo - t0) / dt), 0, width - 1);
        const int b1 = std::clamp(static_cast<int>((hi - t0) / dt), 0, width - 1);
        for (int b = b0; b <= b1; ++b) {
          const double cell_lo = t0 + b * dt;
          const double cover =
              std::min(hi, cell_lo + dt) - std::max(lo, cell_lo);
          if (cover > 0)
            cells[static_cast<std::size_t>(b)]
                 [static_cast<std::size_t>(glyph)] += cover;
        }
      }
      os << (r < 10 ? " " : "") << r << " |";
      for (const auto& cell : cells) {
        char best = '.';
        double best_cover = 0.0;
        for (std::size_t g = 0; g < kGlyphs.size(); ++g) {
          if (cell[g] > best_cover) {
            best = kGlyphs[g];
            best_cover = cell[g];
          }
        }
        os << best;
      }
      os << "|\n";
    }
    if (shown < tracer.ranks())
      os << "(" << tracer.ranks() - shown << " more ranks not shown)\n";
  }
  if (dropped > 0)
    os << "(" << dropped
       << " tracer events lost to ring overflow: the earliest spans are "
          "missing)\n";
}

}  // namespace srumma
