// Platform sweep: a what-if tool for the virtual-time machine models.
// Runs SRUMMA and the pdgemm model on a chosen platform/size/processor
// count (phantom mode: full cost accounting, no data) and prints the
// comparison — the interactive counterpart of the Figure 10 bench.
//
//   $ ./platform_sweep --platform altix --cpus 128 --n 4000
//   $ ./platform_sweep --platform linux --cpus 32 --n 2000 --transpose

#include <cstdio>
#include <iostream>
#include <string>

#include "baselines/summa.hpp"
#include "core/srumma.hpp"
#include "trace/profile.hpp"
#include "util/cli.hpp"

namespace {

srumma::MachineModel make_machine(const std::string& platform, int cpus) {
  using srumma::MachineModel;
  if (platform == "linux") return MachineModel::linux_myrinet((cpus + 1) / 2);
  if (platform == "ib") return MachineModel::infiniband_cluster((cpus + 1) / 2);
  if (platform == "sp") return MachineModel::ibm_sp((cpus + 15) / 16);
  if (platform == "x1") return MachineModel::cray_x1((cpus + 3) / 4);
  if (platform == "altix") return MachineModel::sgi_altix(cpus);
  throw srumma::Error("unknown platform (use linux|ib|sp|x1|altix): " + platform);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace srumma;

  CliParser cli;
  cli.add_flag("platform", "linux", "linux | ib | sp | x1 | altix");
  cli.add_flag("cpus", "16", "processor count (rounded up to whole nodes)");
  cli.add_flag("n", "2000", "square matrix size");
  cli.add_flag("k", "0", "inner dimension (0 = n, i.e. square)");
  cli.add_flag("transpose", "false", "compute C = A^T B^T instead of C = AB");
  cli.add_flag("blocking", "false", "disable the nonblocking get pipeline");
  cli.add_flag("profile", "false", "print the per-rank / per-NIC profile");
  cli.add_flag("timeline", "false", "print an ASCII Gantt of the SRUMMA run");
  if (!cli.parse(argc, argv)) return 0;

  Team team(make_machine(cli.get("platform"), static_cast<int>(cli.get_int("cpus"))));
  // The Gantt is drawn from the tracer's spans.  A tracer armed by
  // SRUMMA_TRACE is kept, so its Chrome trace is still written.
  if (cli.get_bool("timeline") && team.tracer_ptr() == nullptr)
    team.enable_tracer({});
  RmaRuntime rma(team);
  Comm comm(team);
  const ProcGrid grid = ProcGrid::near_square(team.size());
  const index_t n = cli.get_int("n");
  const index_t k = cli.get_int("k") > 0 ? cli.get_int("k") : n;
  const bool tr = cli.get_bool("transpose");

  SrummaOptions sopt;
  sopt.ta = sopt.tb = tr ? blas::Trans::Yes : blas::Trans::No;
  sopt.nonblocking = !cli.get_bool("blocking");
  if (team.machine().single_shared_domain && !team.machine().remote_cacheable)
    sopt.shm_flavor = ShmFlavor::Copy;
  PdgemmOptions dopt;
  dopt.ta = sopt.ta;
  dopt.tb = sopt.tb;

  MultiplyResult s, d;
  double srumma_end = 0.0;  // where the SRUMMA-only Gantt window closes
  team.run([&](Rank& me) {
    const index_t am = tr ? k : n, an = tr ? n : k;
    const index_t bm = tr ? n : k, bn = tr ? k : n;
    DistMatrix a(rma, me, am, an, grid, true);
    DistMatrix b(rma, me, bm, bn, grid, true);
    DistMatrix c(rma, me, n, n, grid, true);
    MultiplyResult rs = srumma_multiply(me, a, b, c, sopt);
    // Fence SRUMMA off from pdgemm: every pdgemm span starts at or after
    // srumma_end, so the Gantt window [0, srumma_end] shows SRUMMA only.
    me.barrier();
    if (me.id() == 0) srumma_end = me.clock().now();
    me.barrier();
    MultiplyResult rd = pdgemm_model(me, comm, a, b, c, dopt);
    if (me.id() == 0) {
      s = rs;
      d = rd;
    }
  });

  std::printf("%s, %d CPUs, N=%td K=%td%s\n", team.machine().name.c_str(),
              team.size(), n, k, tr ? ", C = A^T B^T" : "");
  std::printf("  SRUMMA : %s\n", describe(s).c_str());
  std::printf("  pdgemm : %s\n", describe(d).c_str());
  std::printf("  SRUMMA speedup over pdgemm: %.2fx\n", d.elapsed / s.elapsed);
  if (cli.get_bool("profile")) {
    std::puts("");
    print_profile(std::cout, team);
  }
  if (cli.get_bool("timeline")) {
    std::puts("\nSRUMMA virtual-time Gantt:");
    print_gantt(std::cout, *team.tracer_ptr(), 0.0, srumma_end);
  }
  return 0;
}
