// The traced run: per-layer metrics for one workload.
//
// Order matters because Team has no way to switch its tracer off again:
//   1. the replays, each timed in isolation from the benchmark's side:
//      blas::gemm over the workload's block shapes on one thread, the
//      plan's remote patches fetched inside one Team::run with no gemm,
//      Resource::book with interleaved bookers, empty and barrier-only
//      Team::run bodies;
//   2. for the engine workload, pipeline ops on identical inputs;
//   3. untraced ops on the resident operands — the wall baseline, the
//      per-op counters, NIC busy time and the modeled-time spread;
//   4. traced ops (record-only tracer): events, barrier spans and the
//      tracing overhead against (3), measured right before them so that
//      host-speed drift stays out of the comparison;
//   5. for the service workload, streams for the request-plane counters.
// For the service workload, steps 1-4 run on its largest job (256^3 on a
// 3-node lease), the multiply each such job executes.

#include <algorithm>
#include <array>
#include <numeric>

#include "blas/gemm.hpp"
#include "e2e.hpp"
#include "runtime/fiber_exec.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"
#include "vtime/resource.hpp"

namespace e2e {
namespace {

constexpr int kTracedOps = 20;

/// Mean over nodes of the egress NIC's busy time over the op's makespan
/// (Team::reset zeroes the resources before every op).
double nic_util(Team& team, double vt) {
  const int nodes = team.machine().num_nodes;
  double busy = 0.0;
  for (int n = 0; n < nodes; ++n)
    busy += team.network().nic_out(n).busy_total();
  return busy / (static_cast<double>(nodes) * vt);
}

struct BlasReplay {
  double seconds = 0.0;  ///< host seconds of one op's block products
  double gflops = 0.0;
};

/// blas::gemm on this thread over every rank's tuned block shapes.  Real
/// workloads replay one op's products in full; phantom ops run no kernel,
/// so their distinct shapes are replayed only to report the kernel rate.
BlasReplay replay_blas(const MultiplySpec& spec, const StaticPlan& plan) {
  std::vector<std::array<index_t, 3>> shapes;
  for (const TaskPlan& p : plan.plans)
    for (const Task& t : p.tasks) shapes.push_back({t.cm, t.cn, t.kk});
  if (spec.phantom) {
    std::sort(shapes.begin(), shapes.end());
    shapes.erase(std::unique(shapes.begin(), shapes.end()), shapes.end());
  }
  index_t ld = 1;
  for (const auto& s : shapes) ld = std::max({ld, s[0], s[1], s[2]});
  Matrix a(ld, ld), b(ld, ld), c(ld, ld);
  fill_random(a.view(), 1);
  fill_random(b.view(), 2);

  BlasReplay out;
  double flops = 0.0;
  const auto t0 = Clock::now();
  do {
    for (const auto& [m, n, k] : shapes) {
      blas::gemm(spec.opt.ta, spec.opt.tb, m, n, k, 1.0, a.data(), ld,
                 b.data(), ld, 1.0, c.data(), ld);
      flops += 2.0 * static_cast<double>(m) * static_cast<double>(n) *
               static_cast<double>(k);
    }
  } while (spec.phantom && since(t0) < 0.2);
  const double s = since(t0);
  out.seconds = spec.phantom ? 0.0 : s;
  out.gflops = flops / s * 1e-9;
  return out;
}

struct RmaReplay {
  double gets = 0.0;            ///< gets issued by the replay
  double core_s_per_get = 0.0;  ///< Team::run wall x workers / gets
};

/// Every rank fetches its plan's remote patches (consecutive tasks sharing
/// an A patch fetch it once, as the pipeline's A reuse does) with
/// fetch_nb + wait, inside one Team::run and with no gemm.  The cost of an
/// empty Team::run (`empty_s`) is not charged to the gets.
RmaReplay replay_rma(Bed& bed, const StaticPlan& plan, int workers,
                     double empty_s) {
  Team& team = bed.team();
  const bool phantom = bed.spec().phantom;
  std::vector<Matrix> bufs(static_cast<std::size_t>(team.size()));
  if (!phantom) {
    for (std::size_t r = 0; r < bufs.size(); ++r) {
      index_t rows = 1, cols = 1;
      for (const Task& t : plan.plans[r].tasks) {
        rows = std::max({rows, t.a_m, t.b_m});
        cols = std::max({cols, t.a_n, t.b_n});
      }
      bufs[r] = Matrix(rows, cols);
    }
  }
  const auto fetch = [phantom](Rank& me, DistMatrix& m, Matrix& buf,
                               index_t i0, index_t j0, index_t rows,
                               index_t cols) {
    MatrixView dst = phantom ? MatrixView{}
                             : MatrixView(buf.data(), rows, cols, rows);
    PatchHandle h = m.fetch_nb(me, i0, j0, rows, cols, dst);
    m.wait(me, h);
  };
  std::vector<double> walls;
  for (int i = 0; i < 3; ++i) {
    team.reset();
    const auto t0 = Clock::now();
    team.run([&](Rank& me) {
      const auto r = static_cast<std::size_t>(me.id());
      const Task* prev = nullptr;
      for (const Task& t : plan.plans[r].tasks) {
        if (!t.a_in_domain && (prev == nullptr || !t.same_a_patch(*prev)))
          fetch(me, bed.a(me.id()), bufs[r], t.a_i0, t.a_j0, t.a_m, t.a_n);
        if (!t.b_in_domain)
          fetch(me, bed.b(me.id()), bufs[r], t.b_i0, t.b_j0, t.b_m, t.b_n);
        prev = &t;
      }
    });
    walls.push_back(std::max(0.0, since(t0) - empty_s));
  }
  RmaReplay out;
  out.gets = static_cast<double>(team.total_trace().gets);
  if (out.gets > 0) out.core_s_per_get = median(walls) * workers / out.gets;
  return out;
}

/// Resource::book with `bookers` interleaved bookers whose ready times
/// advance at different rates, as ranks sharing one NIC do.
double replay_book_ns(int bookers) {
  constexpr int kBooks = 1 << 20;
  const double dur = 1e-5;
  std::vector<double> walls;
  for (int rep = 0; rep < 3; ++rep) {
    Resource res;
    std::vector<double> ready(static_cast<std::size_t>(bookers), 0.0);
    const auto t0 = Clock::now();
    for (int i = 0; i < kBooks; ++i) {
      const auto j = static_cast<std::size_t>(i % bookers);
      ready[j] = res.book(ready[j], dur) + dur * static_cast<double>(j + 1) /
                                               static_cast<double>(bookers);
      // What a barrier does: coalesce reservations no booker can reach.
      if (j == 0 && i % 4096 == 0)
        res.advance_frontier(*std::min_element(ready.begin(), ready.end()));
    }
    walls.push_back(since(t0));
  }
  return median(walls) / kBooks * 1e9;
}

double run_empty_s(Team& team) {
  std::vector<double> walls;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    team.run([](Rank&) {});
    walls.push_back(since(t0));
  }
  return median(walls);
}

/// The request plane runs every job on a fresh sub-team: the first
/// Team::run of a fresh team for each lease width 1..8, averaged.
double service_run_empty_s() {
  const MachineModel machine = service_machine();
  double sum = 0.0;
  for (int nodes = 1; nodes <= machine.num_nodes; ++nodes) {
    std::vector<double> walls;
    for (int i = 0; i < 5; ++i) {
      Team team(machine.carve(nodes));
      const auto t0 = Clock::now();
      team.run([](Rank&) {});
      walls.push_back(since(t0));
    }
    sum += median(walls);
  }
  return sum / machine.num_nodes;
}

/// Host seconds per team-wide barrier: a 100-barrier body less an empty one.
double barrier_s(Team& team, double empty_s) {
  constexpr int kBarriers = 100;
  std::vector<double> walls;
  for (int i = 0; i < 5; ++i) {
    team.reset();
    const auto t0 = Clock::now();
    team.run([](Rank& me) {
      for (int b = 0; b < kBarriers; ++b) me.barrier();
    });
    walls.push_back(since(t0));
  }
  return (median(walls) - empty_s) / kBarriers;
}

double share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

}  // namespace

Result run_traced(const Workload& w, std::uint64_t seed, double seconds) {
  const MultiplySpec& spec = w.spec;
  const Operands in = make_operands(spec, seed);
  const StaticPlan plan = plan_spec(spec);
  MultiplyCheck check(spec, plan, in);
  Bed bed(spec, in);
  Team& team = bed.team();
  const int ranks = team.size();
  const int workers = std::clamp(exec::default_workers(), 1, ranks);
  Result res;
  double wall = 0.0;
  (void)bed.multiply(spec.opt, &wall);  // warm-up

  // 1. Replays.
  const BlasReplay blas_r = replay_blas(spec, plan);
  const double empty_s = run_empty_s(team);
  const RmaReplay rma_r = replay_rma(bed, plan, workers, empty_s);
  const double book_ns = replay_book_ns(spec.machine.ranks_per_node);
  const double barrier = barrier_s(team, empty_s);

  // 2. The pipeline on identical inputs.
  std::vector<double> off_vts;
  if (spec.opt.engine == EngineMode::On) {
    SrummaOptions off = spec.opt;
    off.engine = EngineMode::Off;
    for (int i = 0; i < kTracedOps; ++i) {
      const MultiplyResult r = bed.multiply(off, &wall);
      res.record(check.check(bed, off, r));
      off_vts.push_back(r.elapsed);
    }
  }

  // 3. Untraced ops.
  std::vector<double> walls, vts, nic;
  TraceCounters sum;
  double overlap = 0.0;
  const auto start = Clock::now();
  while (vts.size() < static_cast<std::size_t>(kTracedOps) ||
         since(start) < seconds / 2) {
    const MultiplyResult r = bed.multiply(spec.opt, &wall);
    nic.push_back(nic_util(team, r.elapsed));
    res.record(check.check(bed, spec.opt, r));
    walls.push_back(wall);
    vts.push_back(r.elapsed);
    sum += r.trace;
    overlap += r.overlap;
  }
  const double ops = static_cast<double>(vts.size());
  const double wall_p50 = median(walls);
  const double vt_p50 = median(vts);
  const double vt_sum = std::accumulate(vts.begin(), vts.end(), 0.0);
  const double vs_pipeline = off_vts.empty() ? 1.0 : vt_p50 / median(off_vts);

  // 4. Traced ops.
  team.enable_tracer(trace::TracerConfig{});
  std::vector<double> traced_walls;
  double events = 0.0, dropped = 0.0, barrier_spans = 0.0, barrier_vt = 0.0,
         traced_vt = 0.0;
  for (int i = 0; i < kTracedOps; ++i) {
    const MultiplyResult r = bed.multiply(spec.opt, &wall);
    traced_walls.push_back(wall);
    traced_vt += r.elapsed;
    const trace::Tracer& tr = *team.tracer_ptr();
    for (int rank = 0; rank < ranks; ++rank) {
      events += static_cast<double>(tr.recorded(rank));
      dropped += static_cast<double>(tr.dropped(rank));
      for (const trace::TraceEvent& e : tr.events(rank)) {
        if (e.type != trace::EvType::Span || e.phase != trace::Phase::Barrier)
          continue;
        barrier_spans += 1.0;
        barrier_vt += e.t1 - e.t0;
      }
    }
    // Checked after reading the tracer: gathering C records more events.
    res.record(check.check(bed, spec.opt, r));
  }
  const double barriers_per_op = barrier_spans / (ranks * kTracedOps);

  const auto per_op = [ops](double v) { return v / ops; };
  const auto mb = [](double bytes) { return bytes / (1 << 20); };
  // Host core-seconds of one op, and the part the replays account for:
  // the kernel, the gets, the barriers and the Team::run itself.
  const double core_s = wall_p50 * workers;
  const double attributed =
      blas_r.seconds +
      per_op(static_cast<double>(sum.gets)) * rma_r.core_s_per_get +
      (barriers_per_op * barrier + empty_s) * workers;

  res.add("blas.gemm_calls", per_op(static_cast<double>(sum.gemm_calls)),
          "count", "lower");
  res.add("blas.flops_per_call",
          share(sum.flops, static_cast<double>(sum.gemm_calls)), "flop",
          "higher");
  res.add("blas.replay_gflops", blas_r.gflops, "GFLOP/s", "higher");
  res.add("blas.replay_share", share(blas_r.seconds, core_s), "share",
          "higher");
  res.add("rma.gets", per_op(static_cast<double>(sum.gets)), "count",
          "lower");
  res.add("rma.bytes_remote_mb",
          per_op(mb(static_cast<double>(sum.bytes_remote))), "MB", "lower");
  res.add("rma.bytes_shm_mb", per_op(mb(static_cast<double>(sum.bytes_shm))),
          "MB", "lower");
  res.add("rma.overlap", overlap / ops, "share", "higher");
  res.add("rma.wait_share",
          share(sum.time_wait, sum.time_compute + sum.time_wait), "share",
          "lower");
  res.add("rma.replay_us_per_get", rma_r.core_s_per_get * 1e6, "us", "lower");
  res.add("vtime.nic_util", median(nic), "share", "higher");
  res.add("vtime.book_ns", book_ns, "ns", "lower");
  res.add("vtime.vt_spread",
          (quantile(vts, 0.9) - quantile(vts, 0.1)) / vt_p50, "share",
          "lower");
  res.add("runtime.run_empty_ms",
          (w.service ? service_run_empty_s() : empty_s) * 1e3, "ms", "lower");
  res.add("runtime.barrier_us", barrier * 1e6, "us", "lower");
  res.add("runtime.barriers_per_op", barriers_per_op, "count", "lower");
  res.add("runtime.vt_barrier_share", share(barrier_vt, ranks * traced_vt),
          "share", "lower");
  res.add("core.vt_compute_share", share(sum.time_compute, ranks * vt_sum),
          "share", "higher");
  res.add("core.unattributed_share", 1.0 - share(attributed, core_s), "share",
          "lower");
  res.add("engine.tasks_stolen", per_op(static_cast<double>(sum.tasks_stolen)),
          "count", "higher");
  res.add("engine.steal_share",
          share(static_cast<double>(sum.tasks_stolen),
                static_cast<double>(sum.gemm_calls)),
          "share", "higher");
  res.add("engine.vt_vs_pipeline", vs_pipeline, "ratio", "lower");
  const double hits = static_cast<double>(sum.cache_hits);
  const double joins = static_cast<double>(sum.cache_joins);
  const double misses = static_cast<double>(sum.cache_misses);
  const double refetches = static_cast<double>(sum.cache_refetches);
  res.add("cache.hits", per_op(hits), "count", "higher");
  res.add("cache.joins", per_op(joins), "count", "higher");
  res.add("cache.misses", per_op(misses), "count", "lower");
  res.add("cache.refetches", per_op(refetches), "count", "lower");
  res.add("cache.evictions",
          per_op(static_cast<double>(sum.cache_evictions)), "count", "lower");
  res.add("cache.bytes_saved_mb",
          per_op(mb(static_cast<double>(sum.cache_bytes_saved))), "MB",
          "higher");
  res.add("cache.share_ratio",
          share(hits + joins, hits + joins + misses + refetches), "share",
          "higher");

  // 5. The request plane's own counters, each at the rate whose metric it
  // explains: utilization at the overload rate (capacity), queue wait and
  // deadline misses at the nominal rate (latency).
  double util = 0.0, wait = 0.0, latency = 0.0, batches = 0.0, misses_dl = 0.0,
         rejected = 0.0, pairs = 0.0;
  if (w.service) {
    ServiceRunner runner;
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; pairs < 2 || since(t0) < seconds / 4; ++k) {
      const StreamRun nominal =
          runner.run(make_stream(seed, 2 * k, kNominalRate));
      const StreamRun overload =
          runner.run(make_stream(seed, 2 * k + 1, kOverloadRate));
      res.record(nominal.error.empty() ? overload.error : nominal.error);
      util += overload.metrics.utilization;
      misses_dl += static_cast<double>(nominal.metrics.deadline_misses);
      for (const service::JobReport& rep : nominal.reports) {
        wait += rep.wait();
        latency += rep.latency();
      }
      for (const StreamRun* s : {&nominal, &overload}) {
        batches += static_cast<double>(s->metrics.batches);
        rejected += static_cast<double>(s->metrics.rejected);
      }
      pairs += 1.0;
    }
  }
  // Per stream (two streams per pair); zero on the multiply workloads.
  const auto per_stream = [pairs](double v, double streams_per_pair) {
    return pairs > 0 ? v / (pairs * streams_per_pair) : 0.0;
  };
  res.add("service.utilization", per_stream(util, 1), "share", "higher");
  res.add("service.wait_share", share(wait, latency), "share", "lower");
  res.add("service.batches", per_stream(batches, 2), "count", "higher");
  res.add("service.deadline_misses", per_stream(misses_dl, 1), "count",
          "lower");
  res.add("service.rejected", per_stream(rejected, 2), "count", "lower");

  res.add("trace.overhead_share", median(traced_walls) / wall_p50 - 1.0,
          "share", "lower");
  res.add("trace.events_per_op", events / kTracedOps, "count", "lower");
  res.add("trace.dropped", dropped, "count", "lower");
  res.add("dist.scatter_s", bed.scatter_seconds(), "s", "lower");

  res.derive("untraced_ops", ops, "count");
  res.derive("wall_p50_s", wall_p50, "s");
  res.derive("vt_p50_s", vt_p50, "s");
  return res;
}

}  // namespace e2e
