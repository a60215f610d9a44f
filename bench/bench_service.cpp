// Multiply-as-a-service throughput: the request plane (src/service,
// docs/SERVICE.md) sharding the machine into right-sized sub-teams vs the
// same job stream run whole-machine job-at-a-time.
//
// An open-loop Poisson arrival process submits a fixed, seeded stream of
// mixed-size GEMM jobs (1-node smalls through full-machine larges, random
// priorities, deadline hints).  Two arms consume the identical stream:
//
//   concurrent — the scheduler carves sub-teams sized by FLOP cost, packs
//                them side by side, and batches the smallest jobs onto a
//                shared lease;
//   serial     — ServiceConfig::serialize: every job gets all nodes and
//                runs alone, the classic "one big allocation" baseline.
//
// Small multiplies cannot use a big machine: their runtime is dominated by
// latency-bound barriers and O(P) fan-in, so giving them 16 ranks is pure
// waste.  Packing them onto small leases while the larges run beside them
// is where the service earns its keep.  Expected: >= 1.5x jobs/s for the
// concurrent arm, with lower p50 latency and higher utilization.
//
// Emits srumma-bench-metrics/1 with one row per arm whose metrics are the
// ServiceMetrics fields (jobs/s and latency percentiles, not GFLOP/s).

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "service/metrics.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace srumma::service {
namespace {

struct Stream {
  std::vector<JobSpec> jobs;
  std::vector<double> arrivals;
  double mean_interarrival = 0.0;
};

/// Seeded open-loop arrival stream: exponential inter-arrival gaps, a
/// 70/30 small/medium size mix, and uniform random priorities.
/// Deterministic — both arms replay exactly this sequence.
Stream make_stream(index_t n_base, int count, double mean_gap,
                   std::uint64_t seed) {
  Stream s;
  s.mean_interarrival = mean_gap;
  Rng rng(seed);
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    const double u_size = rng.uniform();
    JobSpec job;
    const index_t n = u_size < 0.7 ? n_base : 2 * n_base;
    job.m = job.n = job.k = n;
    const double u_prio = rng.uniform();
    job.priority = u_prio < 0.2   ? JobPriority::High
                   : u_prio < 0.8 ? JobPriority::Normal
                                  : JobPriority::Low;
    // Deadline hint: generous for larges, tight-ish for smalls.
    job.deadline_hint = t + mean_gap * (n == n_base ? 8.0 : 32.0);
    job.label = std::string("n").append(std::to_string(n));
    s.jobs.push_back(job);
    s.arrivals.push_back(t);
    t += -std::log(1.0 - rng.uniform()) * mean_gap;
  }
  return s;
}

struct Arm {
  std::string label;
  ServiceMetrics metrics;
  double wall = 0.0;
};

Arm run_arm(const MachineModel& machine, const Stream& stream,
            const ServiceConfig& cfg, const std::string& label) {
  const bench::WallTimer wall;
  GemmService svc(machine, cfg);
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    (void)svc.submit(stream.jobs[i], stream.arrivals[i]);
  }
  svc.drain();
  return {label, svc.metrics(), wall.seconds()};
}

}  // namespace
}  // namespace srumma::service

int main() {
  using namespace srumma;
  using namespace srumma::bench;
  using namespace srumma::service;
  std::cout << "GEMM request plane: right-sized concurrent sub-teams vs "
               "whole-machine job-at-a-time\n\n";

  const MachineModel machine = MachineModel::linux_myrinet(8);
  const index_t n_base = smoke_n(128, 64);
  const int jobs = smoke_mode() ? 24 : 48;

  ServiceConfig cfg;
  cfg.queue_cap = 4 * jobs;  // accept the whole stream: measure throughput,
                             // not shed rate, so both arms complete equally
  // Size leases so the mix spreads: n -> 1 node, 2n -> 3 nodes (two
  // mediums overlap with two nodes to spare for smalls).
  JobSpec unit;
  unit.m = unit.n = unit.k = 2 * n_base;
  cfg.flops_per_node = unit.flops() / 3.0;
  JobSpec small;
  small.m = small.n = small.k = n_base;
  cfg.batch_flops = small.flops() + 1;  // smalls share one lease
  cfg.batch_max = 4;

  // Calibrate the arrival rate off the modeled service time of one small
  // job on one node: mean gap = half that, i.e. the plane stays busy
  // (open-loop, offered load exceeds a single lease's capacity).
  double small_makespan = 0.0;
  {
    GemmService probe(machine, cfg);
    const SubmitResult r = probe.submit(small, 0.0);
    probe.drain();
    small_makespan = probe.report(r.id).service();
  }
  const Stream stream =
      make_stream(n_base, jobs, small_makespan / 2.0, /*seed=*/0xbeefcafe);

  ServiceConfig serial_cfg = cfg;
  serial_cfg.serialize = true;

  const Arm arms[] = {
      run_arm(machine, stream, cfg, "concurrent"),
      run_arm(machine, stream, serial_cfg, "serial"),
  };

  TableWriter table({"arm", "jobs/s", "p50 ms", "p99 ms", "mean wait ms",
                     "util", "batches", "deadline misses"});
  MetricsLog log("service");
  for (const Arm& a : arms) {
    const ServiceMetrics& m = a.metrics;
    table.add_row({a.label, TableWriter::num(m.jobs_per_s, 1),
                   ms(m.p50_latency), ms(m.p99_latency), ms(m.mean_wait),
                   TableWriter::num(m.utilization, 3),
                   TableWriter::num(static_cast<long long>(m.batches)),
                   TableWriter::num(
                       static_cast<long long>(m.deadline_misses))});
    trace::NumberMap params{
        {"n_base", static_cast<double>(n_base)},
        {"jobs", static_cast<double>(jobs)},
        {"mean_interarrival_s", stream.mean_interarrival},
        {"queue_cap", static_cast<double>(cfg.queue_cap)},
        {"flops_per_node", cfg.flops_per_node},
        {"batch_flops", cfg.batch_flops},
        {"batch_max", static_cast<double>(cfg.batch_max)},
        {"serialize", a.label == "serial" ? 1.0 : 0.0},
    };
    log.add_metrics(a.label, metrics_map(m), std::move(params), a.wall,
                    m.window);
  }
  table.print(std::cout, "Linux cluster, 8 dual nodes (16 ranks), " +
                             std::to_string(jobs) +
                             " jobs, Poisson arrivals, N in {" +
                             std::to_string(n_base) + "," +
                             std::to_string(2 * n_base) + "}");

  const double ratio = arms[0].metrics.jobs_per_s / arms[1].metrics.jobs_per_s;
  std::cout << "  throughput ratio (concurrent/serial): "
            << TableWriter::num(ratio, 3) << "x\n\n"
            << "Expected shape: >= 1.5x jobs/s for the concurrent arm — "
               "small multiplies are latency-bound and cannot use 16 ranks, "
               "so packing right-sized sub-teams beats job-at-a-time.\n";
  return log.write_env() ? 0 : 1;
}
