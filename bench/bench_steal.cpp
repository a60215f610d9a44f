// Straggler absorption: the dependency-driven task engine (src/engine,
// docs/ENGINE.md) vs the static pipeline when one node's link runs slow.
//
// The fault plane multiplies the wire time of every inter-node transfer
// touching one node (FaultConfig::straggler_node) — the paper's "slow
// switch port / flaky NIC" scenario.  The static pipeline consumes its
// fetches in plan order, so one 8x-delayed patch stalls every product
// queued behind it.  The engine executes C tiles out of order (whatever
// operands arrive first), dedups shared operand patches, and lets a rank
// whose next products are all parked on the slow link steal remote-operand
// tasks from its SMP-domain mate, committing the handed-back tile at the
// exact plan position so C stays bitwise identical.
//
// Both arms run the identical plan on the identical machine and fault
// stream; only the executor differs.  Reported per arm: modeled elapsed
// virtual time, GFLOP/s, and the task ledger.  The steal ledger must
// reconcile exactly: engine_tasks + tasks_stolen == copy_tasks +
// direct_tasks == gemm_calls.  The engine arm is traced, and a "handback"
// row reports how much virtual time owners spent waiting on their thieves'
// publishes beyond the tile copy itself.
//
// Expected: >= 1.3x lower elapsed virtual time with the engine on, and no
// handback wait: virtual-time admission only lets a steal through when
// its publish lands before the victim could run that work itself.  How
// many steals pass depends on real-time interleaving.

#include <algorithm>
#include <iostream>

#include "bench/common.hpp"
#include "trace/tracer.hpp"

namespace srumma::bench {
namespace {

struct Arm {
  MultiplyResult result;
  double wall = 0.0;
  const char* label;
  std::uint64_t handbacks = 0;
  double handback_wait = 0.0;  // Handback span time beyond the tile copy
};

Arm run_arm(const MachineModel& machine, EngineMode mode, index_t n,
            int straggler_node) {
  RmaConfig cfg;
  fault::FaultConfig faults;
  faults.straggler_node = straggler_node;
  faults.straggler_factor = 8.0;
  cfg.faults = faults;
  Testbed tb(machine, cfg);
  SrummaOptions opt = platform_options(tb.team.machine());
  // Several C tiles per rank so the engine has reorder freedom, and a
  // k-grain fine enough that each tile chain crosses both the healthy and
  // the straggler-owned operand panels.
  opt.c_chunk = n / 16;
  opt.engine = mode;
  Arm arm;
  arm.label = mode == EngineMode::On ? "engine" : "pipeline";
  if (mode == EngineMode::On) tb.team.enable_tracer(trace::TracerConfig{});
  arm.result = run_srumma(tb, n, n, n, opt, &arm.wall);
  if (const trace::Tracer* tr = tb.team.tracer_ptr()) {
    // Every tile is c_chunk x c_chunk (the local blocks divide evenly), so
    // each handback's own cost is one uncontended intra-domain tile copy.
    const double copy =
        machine.shm_latency + static_cast<double>(opt.c_chunk) *
                                  static_cast<double>(opt.c_chunk) *
                                  sizeof(double) / machine.shm_bw;
    for (int r = 0; r < tr->ranks(); ++r)
      for (const trace::TraceEvent& e : tr->events(r))
        if (e.type == trace::EvType::Span &&
            e.phase == trace::Phase::Handback) {
          arm.handbacks += 1;
          arm.handback_wait += std::max(0.0, e.t1 - e.t0 - copy);
        }
  }
  return arm;
}

}  // namespace
}  // namespace srumma::bench

int main() {
  using namespace srumma;
  using namespace srumma::bench;
  std::cout << "Dependency-driven engine vs static pipeline with one "
               "straggler node (8x wire time on its link)\n\n";
  const MachineModel machine = MachineModel::linux_myrinet(4);
  const index_t n = smoke_n(1024, 256);
  const int straggler = 1;

  MetricsLog log("steal");
  TableWriter table({"executor", "time ms", "GFLOP/s", "engine tasks",
                     "stolen", "denied", "copy tasks", "direct tasks",
                     "reissues"});
  Arm arms[] = {run_arm(machine, EngineMode::Off, n, straggler),
                run_arm(machine, EngineMode::On, n, straggler)};
  for (const Arm& a : arms) {
    const TraceCounters& t = a.result.trace;
    table.add_row({a.label, ms(a.result.elapsed), gf(a.result.gflops),
                   TableWriter::num(static_cast<long long>(t.engine_tasks)),
                   TableWriter::num(static_cast<long long>(t.tasks_stolen)),
                   TableWriter::num(static_cast<long long>(t.steals_denied)),
                   TableWriter::num(static_cast<long long>(t.copy_tasks)),
                   TableWriter::num(static_cast<long long>(t.direct_tasks)),
                   TableWriter::num(static_cast<long long>(t.task_reissues))});
    trace::NumberMap params{{"n", static_cast<double>(n)},
                            {"straggler_node", static_cast<double>(straggler)},
                            {"straggler_factor", 8.0},
                            {"engine", a.label[0] == 'e' ? 1.0 : 0.0}};
    // The overall bound covers both executors, so one emitted ceiling is
    // valid for the pipeline and the engine arm alike.
    SrummaOptions aopt = platform_options(machine);
    aopt.c_chunk = n / 16;
    append_static_bounds(params, machine, n, n, n, aopt);
    log.add(a.label, a.result, std::move(params), a.wall);
  }
  table.print(std::cout,
              "Linux cluster, 4 dual nodes (8 ranks), N=" +
                  std::to_string(n) + ", straggler node " +
                  std::to_string(straggler));
  const Arm& eng = arms[1];
  log.add_metrics("handback",
                  {{"handbacks", static_cast<double>(eng.handbacks)},
                   {"handback_wait_s", eng.handback_wait}},
                  {{"n", static_cast<double>(n)}}, 0.0, eng.result.elapsed);
  const double ratio = arms[0].result.elapsed / eng.result.elapsed;
  std::cout << "  virtual-time speedup (pipeline/engine): "
            << TableWriter::num(ratio, 3) << "x, tasks stolen: "
            << eng.result.trace.tasks_stolen << ", handback wait beyond the "
            << "tile copy: " << eng.handback_wait * 1e3 << " ms over "
            << eng.handbacks << " handbacks\n\n"
            << "Expected shape: >= 1.3x lower elapsed virtual time with the "
               "engine, zero handback wait, and an exactly reconciling "
               "ledger (engine_tasks + tasks_stolen == copy_tasks + "
               "direct_tasks == gemm_calls).\n";
  return log.write_env() ? 0 : 1;
}
