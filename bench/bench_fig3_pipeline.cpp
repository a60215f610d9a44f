// Figure 3: the double-buffered pipeline — "a processor receives data in
// B2 while computing the data in B1... Overlapping communication with
// computation is achieved in all steps, except first."
//
// The paper draws this as an illustration; here it is regenerated from a
// live run: an ASCII Gantt of rank 0's virtual time on the Linux cluster
// model, nonblocking vs blocking.  In the nonblocking chart the gets (G)
// run concurrently with compute (C) and no waits appear after the first
// task; in the blocking chart every task serializes get -> wait -> compute.

#include <iostream>

#include "bench/common.hpp"
#include "trace/profile.hpp"

namespace srumma::bench {
namespace {

void run_arm(const std::string& label, bool nonblocking,
             std::optional<bool> cache, MetricsLog& log) {
  const index_t n = smoke_n(1536, 192);
  Team team(MachineModel::linux_myrinet(4));  // 8 ranks
  // The Gantt is drawn from the tracer's spans.  A tracer armed by
  // SRUMMA_TRACE is kept, so its Chrome trace is still written.
  if (team.tracer_ptr() == nullptr) team.enable_tracer({});
  RmaRuntime rma(team, cache_rma_config(cache));
  const ProcGrid g = ProcGrid::near_square(team.size());
  MultiplyResult out;
  const WallTimer wall;
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, g, true);
    DistMatrix b(rma, me, n, n, g, true);
    DistMatrix c(rma, me, n, n, g, true);
    SrummaOptions opt;
    opt.nonblocking = nonblocking;
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) out = r;
  });
  const double wall_s = wall.seconds();
  std::cout << label << " — " << TableWriter::num(out.gflops, 1)
            << " GFLOP/s, overlap "
            << TableWriter::num(out.overlap * 100.0, 1) << "%\n";
  print_gantt(std::cout, *team.tracer_ptr(), 0.0, 0.0, 100, 4);
  std::cout << "\n";
  trace::NumberMap params{{"n", static_cast<double>(n)},
                          {"ranks", static_cast<double>(team.size())},
                          {"cache", cache_engaged(rma) ? 1.0 : 0.0}};
  SrummaOptions aopt;
  aopt.nonblocking = nonblocking;
  append_static_bounds(params, team.machine(), n, n, n, aopt);
  log.add(nonblocking ? "nonblocking" : "blocking", out, std::move(params),
          wall_s);
}

}  // namespace
}  // namespace srumma::bench

int main(int argc, char** argv) {
  using namespace srumma;
  using namespace srumma::bench;
  // --cache / --no-cache: run the pipeline with the cooperative
  // remote-block cache toggled (bytes saved land in the metrics JSON).
  const std::optional<bool> cache = parse_cache_flag(argc, argv);
  std::cout << "Figure 3: the double-buffered nonblocking pipeline, "
               "regenerated as a virtual-time Gantt\n(Linux cluster model, "
               "8 ranks; first 4 ranks shown)\n\n";
  MetricsLog log("fig3");
  run_arm("Nonblocking (paper's Fig. 3: overlap in all steps except first)",
          true, cache, log);
  run_arm("Blocking (no pipeline: every get exposed as a wait)", false, cache,
          log);
  std::cout << "Expected shape: nonblocking shows G spans riding alongside "
               "C with no W cells after the first task; blocking shows "
               "G/W cells serializing with C.\n";
  return log.write_env() ? 0 : 1;
}
