// srumma-analyze — static schedule verifier and trace cross-checker
// (docs/ANALYSIS.md).
//
// Default mode builds the full plan model for one configuration x machine
// and runs the static analysis; exit status 0 means certified (zero
// findings).  --mutate seeds one protocol fault first and the run is
// expected to exit nonzero.  --trace <journal> ingests an RMA-checker
// journal instead and exits nonzero when the happens-before detector finds
// a race the epoch checker missed.

#include <cstdio>
#include <exception>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/hb.hpp"
#include "analysis/plan_model.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace srumma;

MachineModel make_machine(const std::string& name, int nodes, int rpn) {
  if (name == "cluster") return MachineModel::linux_myrinet(nodes);
  if (name == "sp") return MachineModel::ibm_sp(nodes);
  if (name == "x1") return MachineModel::cray_x1(nodes);
  if (name == "altix") return MachineModel::sgi_altix(nodes * rpn);
  return MachineModel::testing(nodes, rpn);
}

int run(int argc, const char* const* argv) {
  CliParser cli;
  cli.add_flag("trace", "",
               "RMA-checker journal to cross-validate (switches to "
               "happens-before mode; all plan flags are ignored)");
  cli.add_choice_flag("machine", "testing",
                      {"testing", "cluster", "sp", "x1", "altix", "ib"},
                      "machine model to analyze against");
  cli.add_flag("nodes", "2", "number of nodes (altix: bricks of --rpn CPUs)");
  cli.add_flag("rpn", "2", "ranks per node");
  cli.add_flag("m", "96", "C rows");
  cli.add_flag("n", "96", "C cols");
  cli.add_flag("k", "96", "inner dimension");
  cli.add_flag("ta", "0", "transpose A");
  cli.add_flag("tb", "0", "transpose B");
  cli.add_choice_flag("flavor", "direct", {"direct", "copy"},
                      "shared-memory access flavor");
  cli.add_flag("nonblocking", "1", "nonblocking prefetch pipeline");
  cli.add_flag("lookahead", "0", "prefetch depth (0 = auto heuristic)");
  cli.add_flag("k-chunk", "0", "max K-segment length (0 = auto)");
  cli.add_flag("c-chunk", "0", "max C-tile edge (0 = whole block)");
  cli.add_flag("max-buffer-bytes", "0",
               "per-rank buffer budget in bytes (0 = unlimited)");
  cli.add_choice_flag("ordering", "full", {"full", "naive"},
                      "task ordering policy");
  cli.add_choice_flag("mutate", "none",
                      {"none", "drop-wait", "reorder-commit", "widen-get",
                       "adopt-chain"},
                      "seed one protocol fault before analyzing "
                      "(expected to exit nonzero)");
  cli.add_flag("seed", "1", "mutation site selection seed");
  if (!cli.parse(argc, argv)) return 0;

  const std::string trace = cli.get("trace");
  if (!trace.empty()) {
    const auto recs = trace::read_journal(trace);
    const analysis::HbResult res = analysis::analyze_journal(recs);
    std::printf("%s\n", analysis::hb_report_json(trace, res).c_str());
    if (res.missed() != 0) {
      std::fprintf(stderr,
                   "srumma-analyze: %zu happens-before race(s) have no "
                   "matching checker diagnostic\n",
                   res.missed());
      return 1;
    }
    return 0;
  }

  analysis::AnalysisConfig cfg;
  cfg.machine = make_machine(cli.get("machine"),
                             static_cast<int>(cli.get_int("nodes")),
                             static_cast<int>(cli.get_int("rpn")));
  if (cli.get("machine") == "ib")
    cfg.machine = MachineModel::infiniband_cluster(
        static_cast<int>(cli.get_int("nodes")));
  cfg.m = cli.get_int("m");
  cfg.n = cli.get_int("n");
  cfg.k = cli.get_int("k");
  cfg.options.ta = cli.get_bool("ta") ? blas::Trans::Yes : blas::Trans::No;
  cfg.options.tb = cli.get_bool("tb") ? blas::Trans::Yes : blas::Trans::No;
  cfg.options.shm_flavor =
      cli.get("flavor") == "copy" ? ShmFlavor::Copy : ShmFlavor::Direct;
  cfg.options.nonblocking = cli.get_bool("nonblocking");
  cfg.options.lookahead = static_cast<int>(cli.get_int("lookahead"));
  cfg.options.k_chunk = cli.get_int("k-chunk");
  cfg.options.c_chunk = cli.get_int("c-chunk");
  cfg.options.max_buffer_bytes =
      static_cast<std::uint64_t>(cli.get_int("max-buffer-bytes"));
  if (cli.get("ordering") == "naive")
    cfg.options.ordering = OrderingPolicy::naive();

  analysis::PlanModel pm = analysis::build_plan_model(cfg);

  std::string mutation = "none";
  std::string detail;
  if (cli.get("mutate") != "none") {
    const auto mut = analysis::mutation_from_name(cli.get("mutate"));
    SRUMMA_REQUIRE(mut.has_value(), "unknown mutation name");
    detail = analysis::mutate_plan(
        pm, *mut, static_cast<std::uint64_t>(cli.get_int("seed")));
    mutation = analysis::mutation_name(*mut);
  }

  const analysis::AnalysisReport rep = analysis::analyze(pm);
  std::printf("%s\n",
              analysis::report_json(pm, rep, mutation, detail).c_str());
  if (!rep.certified()) {
    for (const analysis::Finding& f : rep.findings)
      std::fprintf(stderr, "srumma-analyze: [%s] rank %d task %td: %s\n",
                   analysis::finding_kind_name(f.kind), f.rank, f.task,
                   f.message.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "srumma-analyze: error: %s\n", e.what());
    return 2;
  }
}
