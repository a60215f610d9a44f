#pragma once
// Shared runners for the paper-reproduction benches.
//
// Every bench builds phantom (model-only) distributed matrices, runs the
// algorithms through the identical code paths the correctness tests
// exercise with real data, and prints the rows the corresponding paper
// table or figure reports.

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "analysis/analyzer.hpp"
#include "baselines/cannon.hpp"
#include "baselines/summa.hpp"
#include "cache/block_cache.hpp"
#include "core/srumma.hpp"
#include "dist/dist_matrix.hpp"
#include "msg/comm.hpp"
#include "perf/model.hpp"
#include "rma/rma.hpp"
#include "trace/metrics_json.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace srumma::bench {

using trace::MetricsLog;

/// SRUMMA_BENCH_SMOKE=1 shrinks problem sizes so scripts/bench_report.sh
/// can regenerate every BENCH_*.json in seconds; the emitted schema is
/// identical to a full run (params record the sizes actually used).
inline bool smoke_mode() {
  return env::flag("SRUMMA_BENCH_SMOKE").value_or(false);
}

/// Problem size under the current mode: `full` normally, `small` in smoke.
inline index_t smoke_n(index_t full, index_t small) {
  return smoke_mode() ? small : full;
}

/// Wall-clock stopwatch for the harness-speed metrics (wall_seconds /
/// wall_per_virtual_second in every BENCH_*.json row): starts on
/// construction, seconds() reads elapsed real time.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One machine + comm stack, reusable across experiment runs.
struct Testbed {
  Team team;
  RmaRuntime rma;
  Comm comm;

  explicit Testbed(MachineModel machine, RmaConfig rma_cfg = {})
      : team(std::move(machine)), rma(team, rma_cfg), comm(team) {}

  [[nodiscard]] ProcGrid grid() const {
    // const_cast-free: ProcGrid::near_square needs only the size.
    return ProcGrid::near_square(team.machine().total_ranks());
  }
};

/// Phantom SRUMMA run: C(m x n) = op(A) op(B) with inner dimension k.
/// `wall_out`, when given, receives the wall-clock seconds of the run.
inline MultiplyResult run_srumma(Testbed& tb, index_t m, index_t n, index_t k,
                                 SrummaOptions opt = {},
                                 double* wall_out = nullptr) {
  const ProcGrid g = tb.grid();
  const bool tra = opt.ta == blas::Trans::Yes;
  const bool trb = opt.tb == blas::Trans::Yes;
  MultiplyResult out;
  tb.team.reset();
  const WallTimer wall;
  tb.team.run([&](Rank& me) {
    DistMatrix a(tb.rma, me, tra ? k : m, tra ? m : k, g, true);
    DistMatrix b(tb.rma, me, trb ? n : k, trb ? k : n, g, true);
    DistMatrix c(tb.rma, me, m, n, g, true);
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) out = r;
  });
  if (wall_out != nullptr) *wall_out = wall.seconds();
  return out;
}

/// Phantom pdgemm (SUMMA + transpose redistribution) run.
inline MultiplyResult run_pdgemm(Testbed& tb, index_t m, index_t n, index_t k,
                                 PdgemmOptions opt = {},
                                 double* wall_out = nullptr) {
  const ProcGrid g = tb.grid();
  const bool tra = opt.ta == blas::Trans::Yes;
  const bool trb = opt.tb == blas::Trans::Yes;
  MultiplyResult out;
  tb.team.reset();
  const WallTimer wall;
  tb.team.run([&](Rank& me) {
    DistMatrix a(tb.rma, me, tra ? k : m, tra ? m : k, g, true);
    DistMatrix b(tb.rma, me, trb ? n : k, trb ? k : n, g, true);
    DistMatrix c(tb.rma, me, m, n, g, true);
    MultiplyResult r = pdgemm_model(me, tb.comm, a, b, c, opt);
    if (me.id() == 0) out = r;
  });
  if (wall_out != nullptr) *wall_out = wall.seconds();
  return out;
}

/// Phantom Cannon run (square grid machines only).
inline MultiplyResult run_cannon(Testbed& tb, index_t n,
                                 double* wall_out = nullptr) {
  MultiplyResult out;
  tb.team.reset();
  const WallTimer wall;
  tb.team.run([&](Rank& me) {
    CannonOptions opt;
    opt.m = opt.n = opt.k = n;
    opt.phantom = true;
    MultiplyResult r = cannon_multiply(me, tb.comm, MatrixView{}, MatrixView{},
                                       MatrixView{}, opt);
    if (me.id() == 0) out = r;
  });
  if (wall_out != nullptr) *wall_out = wall.seconds();
  return out;
}

/// `--cache` / `--no-cache` CLI toggle shared by the benches.  Returns the
/// explicit choice, or nullopt when neither flag is given — RmaConfig then
/// defers to the SRUMMA_CACHE environment variable (default off).
inline std::optional<bool> parse_cache_flag(int argc, char** argv) {
  std::optional<bool> flag;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--cache") {
      flag = true;
    } else if (a == "--no-cache") {
      flag = false;
    }
  }
  return flag;
}

/// RmaConfig for a bench arm with the cooperative block cache toggled.
/// The explicit capacity is generous (256 MiB modeled per domain) so
/// cross-C-tile temporal reuse is not LRU-evicted mid-multiply; the
/// default capacity is sized for the pipeline lookahead footprint only.
inline RmaConfig cache_rma_config(std::optional<bool> cache) {
  RmaConfig cfg;
  cfg.cache = cache;
  cfg.cache_capacity = std::uint64_t{256} << 20;
  return cfg;
}

/// Whether `rma` actually has the cache engaged (flag or environment).
inline bool cache_engaged(RmaRuntime& rma) {
  return rma.block_cache() != nullptr && rma.block_cache()->config().enabled;
}

/// SRUMMA options matched to a platform, as the paper configures it:
/// copy-based shared-memory flavor where remote memory is not cacheable.
inline SrummaOptions platform_options(const MachineModel& m) {
  SrummaOptions opt;
  if (m.single_shared_domain && !m.remote_cacheable) {
    opt.shm_flavor = ShmFlavor::Copy;
  }
  return opt;
}

/// Static-analyzer ceilings for this bench configuration, appended to the
/// metrics-JSON params.  scripts/bench_report.sh and check.sh assert every
/// row's runtime buffer_bytes_peak counter stays <= the emitted bound, so
/// a pipeline/engine buffering regression fails the report, not just the
/// unit tests.  Requires the analyzer to certify the configuration — a
/// bench must never run a schedule the static verifier rejects.
inline void append_static_bounds(trace::NumberMap& params,
                                 const MachineModel& machine, index_t m,
                                 index_t n, index_t k,
                                 const SrummaOptions& opt) {
  analysis::AnalysisConfig cfg;
  cfg.machine = machine;
  cfg.options = opt;
  cfg.m = m;
  cfg.n = n;
  cfg.k = k;
  const analysis::AnalysisReport rep =
      analysis::analyze(analysis::build_plan_model(cfg));
  SRUMMA_REQUIRE(rep.certified(),
                 "static analyzer flagged this bench configuration");
  params.emplace_back("buffer_bytes_peak_bound",
                      static_cast<double>(rep.bounds.buffer_bytes));
  params.emplace_back("cache_pins_bound",
                      static_cast<double>(rep.bounds.cache_pins));
}

inline std::string gf(double gflops) { return TableWriter::num(gflops, 1); }
inline std::string ms(double seconds) {
  return TableWriter::num(seconds * 1e3, 2);
}

}  // namespace srumma::bench
