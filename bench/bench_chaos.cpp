// Chaos soak: permanent domain death at each kill point vs the fault-free
// baseline, under both executors (docs/FAULTS.md §7).
//
// A killed arm pays the full recovery stack: up-front buddy replication of
// A, B and the beta-applied C (one inter-domain block mirror per rank),
// the drain of in-flight handles against the dead domain, the team-wide
// declaration barrier, and the survivors' adoption of the dead ranks' C
// commit chains from the replicas (replayed in plan order, so C stays
// bitwise identical — tests/test_chaos.cpp proves that on real data; this
// bench measures the modeled cost of the same code path on phantoms).
//
// Acceptance bar (enforced by scripts/bench_report.sh on the emitted
// BENCH_chaos.json): killed arms complete within 2x the fault-free
// virtual time of their executor, every killed arm adopts tasks, and
// the ledger reconciles exactly with adoption: copy_tasks + direct_tasks
// == gemm_calls on every row, and on engine rows engine_tasks +
// tasks_adopted == gemm_calls (tests/test_chaos.cpp asserts the same
// split).  Both executors' adoption passes largely ride the critical path
// once their own work is done — measured ~1.4-1.75x — and the 2x tier
// absorbs the virtual-time jitter from the cooperative cache's fetcher
// election.  Engine killed arms are additionally held to absolute virtual
// times committed earlier, so recovery cannot quietly get slower.

#include <iostream>

#include "bench/common.hpp"
#include "fault/fault_plane.hpp"

namespace srumma::bench {
namespace {

struct Arm {
  MultiplyResult result;
  double wall = 0.0;
  std::string label;
  bool killed = false;
};

const char* point_name(fault::KillPoint p) {
  switch (p) {
    case fault::KillPoint::Prefetch: return "prefetch";
    case fault::KillPoint::Chain: return "chain";
    case fault::KillPoint::Barrier: return "barrier";
    default: return "none";
  }
}

Arm run_arm(const MachineModel& machine, EngineMode mode, index_t n,
            fault::KillPoint kp, std::optional<bool> cache) {
  RmaConfig cfg = cache_rma_config(cache);
  if (kp != fault::KillPoint::None) {
    fault::FaultConfig f;
    f.kill_domain = 1;
    f.kill_point = kp;
    f.buddy_offset = 1;
    cfg.faults = f;
  }
  Testbed tb(machine, cfg);
  SrummaOptions opt = platform_options(tb.team.machine());
  // Several C tiles per rank: each tile's commit chain is one adoption
  // unit, so the dead domain's work spreads over the survivors.
  opt.c_chunk = n / 16;
  opt.engine = mode;
  Arm arm;
  arm.killed = kp != fault::KillPoint::None;
  arm.label = std::string(mode == EngineMode::On ? "engine" : "pipeline") +
              (arm.killed ? std::string("_kill_") + point_name(kp)
                          : std::string("_faultfree"));
  arm.result = run_srumma(tb, n, n, n, opt, &arm.wall);
  return arm;
}

}  // namespace
}  // namespace srumma::bench

int main(int argc, char** argv) {
  using namespace srumma;
  using namespace srumma::bench;
  std::cout << "Permanent domain death: buddy replication + task adoption "
               "vs the fault-free baseline\n\n";
  // 8 dual nodes: recovery cost scales with the DEAD FRACTION of the
  // machine (1/8 here — each survivor adopts ~1/14 extra compute and the
  // replica mirror is one block per rank regardless), so a mid-size
  // cluster is where the 2x bar is the honest headline.  On the 4-node
  // testing grid the same code sits near its floor of ~1.5x: one dead
  // domain of 4 means every survivor replays 1/3 extra compute before any
  // communication is even counted (tests/test_chaos.cpp covers that shape
  // for correctness).
  const MachineModel machine = MachineModel::linux_myrinet(8);
  const index_t n = smoke_n(1024, 512);
  // Cache defaults ON here (unlike other benches): adoption replays the
  // dead ranks' panels out of the survivors' warm cooperative caches
  // (docs/FAULTS.md §7), so the cached configuration is the one the 2x
  // recovery bar is enforced on.  --no-cache still measures cold recovery.
  const std::optional<bool> cache =
      parse_cache_flag(argc, argv).value_or(true);

  const fault::KillPoint points[] = {
      fault::KillPoint::None, fault::KillPoint::Prefetch,
      fault::KillPoint::Chain, fault::KillPoint::Barrier};

  MetricsLog log("chaos");
  TableWriter table({"arm", "time ms", "GFLOP/s", "overhead", "adopted",
                     "dead drains", "reissues"});
  for (const EngineMode mode : {EngineMode::Off, EngineMode::On}) {
    double faultfree = 0.0;
    for (const fault::KillPoint kp : points) {
      Arm arm = run_arm(machine, mode, n, kp, cache);
      if (!arm.killed) faultfree = arm.result.elapsed;
      const double overhead =
          faultfree > 0.0 ? arm.result.elapsed / faultfree : 1.0;
      const TraceCounters& t = arm.result.trace;
      table.add_row(
          {arm.label, ms(arm.result.elapsed), gf(arm.result.gflops),
           TableWriter::num(overhead, 3) + "x",
           TableWriter::num(static_cast<long long>(t.tasks_adopted)),
           TableWriter::num(static_cast<long long>(t.rma_domain_dead)),
           TableWriter::num(static_cast<long long>(t.task_reissues))});
      trace::NumberMap params{
          {"n", static_cast<double>(n)},
          {"engine", mode == EngineMode::On ? 1.0 : 0.0},
          {"killed", arm.killed ? 1.0 : 0.0},
          {"kill_domain", arm.killed ? 1.0 : -1.0},
          {"buddy_offset", 1.0},
          {"overhead_vs_faultfree", overhead}};
      log.add(arm.label, arm.result, std::move(params), arm.wall);
    }
  }
  table.print(std::cout, "Linux cluster, 8 dual nodes (16 ranks), N=" +
                             std::to_string(n) + ", kill domain 1");
  std::cout
      << "\nExpected shape: killed arms within 2x of the executor's "
         "fault-free virtual time (replication mirror + drain + adoption, "
         "which rides the critical path), nonzero adopted tasks on every "
         "killed arm, and an exactly reconciling ledger: copy_tasks + "
         "direct_tasks == gemm_calls everywhere, engine_tasks + "
         "tasks_adopted == gemm_calls on engine rows.\n";
  return log.write_env() ? 0 : 1;
}
