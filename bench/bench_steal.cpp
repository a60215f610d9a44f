// Straggler absorption: the dependency-driven task engine (src/engine,
// docs/ENGINE.md) vs the static pipeline when one node's link runs slow.
//
// The fault plane multiplies the wire time of every inter-node transfer
// touching one node (FaultConfig::straggler_node) — the paper's "slow
// switch port / flaky NIC" scenario.  The static pipeline consumes its
// fetches in plan order, so one 8x-delayed patch stalls every product
// queued behind it.  The engine executes C tiles out of order (whatever
// operands arrive first) and dedups shared operand patches, while each
// tile's products still commit in plan order, so C stays bitwise
// identical.
//
// Both arms run the identical plan on the identical machine and fault
// stream; only the executor differs.  Reported per arm: modeled elapsed
// virtual time, GFLOP/s, and the task ledger, which must reconcile
// exactly: engine_tasks == copy_tasks + direct_tasks == gemm_calls on the
// engine arm.
//
// Expected: >= 1.3x lower elapsed virtual time with the engine on, all of
// it from out-of-order execution.  (The bench keeps its name from the
// intra-domain work stealing it once measured.)

#include <iostream>

#include "bench/common.hpp"

namespace srumma::bench {
namespace {

struct Arm {
  MultiplyResult result;
  double wall = 0.0;
  const char* label;
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
  arm.result = run_srumma(tb, n, n, n, opt, &arm.wall);
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
                     "copy tasks", "direct tasks", "reissues"});
  Arm arms[] = {run_arm(machine, EngineMode::Off, n, straggler),
                run_arm(machine, EngineMode::On, n, straggler)};
  for (const Arm& a : arms) {
    const TraceCounters& t = a.result.trace;
    table.add_row({a.label, ms(a.result.elapsed), gf(a.result.gflops),
                   TableWriter::num(static_cast<long long>(t.engine_tasks)),
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
  const double ratio = arms[0].result.elapsed / arms[1].result.elapsed;
  std::cout << "  virtual-time speedup (pipeline/engine): "
            << TableWriter::num(ratio, 3) << "x\n\n"
            << "Expected shape: >= 1.3x lower elapsed virtual time with the "
               "engine, and an exactly reconciling ledger (engine_tasks == "
               "copy_tasks + direct_tasks == gemm_calls).\n";
  return log.write_env() ? 0 : 1;
}
