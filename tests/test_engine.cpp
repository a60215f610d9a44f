// The task executor (src/engine, docs/ENGINE.md) under its two operand
// lifetimes: the plan lifetime (EngineMode::On) must produce C bitwise
// identical to the window lifetime (Off) on every configuration
// (transposes, flavors, chunking, blocking mode, faults, cache), reconcile
// its ledger exactly (engine_tasks == copy_tasks + direct_tasks ==
// gemm_calls), re-arm failed fetches in place, and beat the window lifetime
// under a straggler by holding patches until their last reader; the window
// lifetime must never hold more than its issue window.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/plan_model.hpp"
#include "core/srumma.hpp"
#include "engine/engine.hpp"
#include "tests/helpers.hpp"

namespace srumma {
namespace {

using blas::Trans;

// Small-integer fill: every product and partial sum is exactly
// representable, so lifetime-vs-lifetime and executor-vs-serial comparisons
// can demand bitwise equality (diff exactly 0.0) rather than a tolerance.
void fill_ints(MatrixView v, std::uint64_t seed) {
  Rng rng(seed);
  for (index_t j = 0; j < v.cols(); ++j)
    for (index_t i = 0; i < v.rows(); ++i)
      v(i, j) = static_cast<double>(static_cast<int>(rng.below(9))) - 4.0;
}

struct EngineRun {
  Matrix c;
  MultiplyResult result;
  TraceCounters trace;
  double max_clock = 0.0;
};

// `workers` > 0 runs the ranks pooled on that many harness workers (one
// worker makes every modeled number reproducible); 0 keeps the default.
EngineRun run_multiply(const MachineModel& mm, ProcGrid grid, index_t m,
                       index_t n, index_t k, const RmaConfig& cfg,
                       SrummaOptions opt, EngineMode mode,
                       std::uint64_t seed, int workers = 0) {
  opt.engine = mode;
  Team team(mm);
  if (workers > 0) team.set_execution(ExecMode::Pooled, workers);
  RmaRuntime rma(team, cfg);
  const bool tra = opt.ta == Trans::Yes;
  const bool trb = opt.tb == Trans::Yes;
  Matrix a_g(tra ? k : m, tra ? m : k);
  Matrix b_g(trb ? n : k, trb ? k : n);
  fill_ints(a_g.view(), seed);
  fill_ints(b_g.view(), seed + 1);
  Matrix c_init(m, n);
  fill_ints(c_init.view(), seed + 2);

  EngineRun out{Matrix(m, n), {}, {}};
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, a_g.rows(), a_g.cols(), grid);
    DistMatrix b(rma, me, b_g.rows(), b_g.cols(), grid);
    DistMatrix c(rma, me, m, n, grid);
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    c.scatter_from(me, c_init.view());
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) out.result = r;
    c.gather_to(me, out.c.view());
  });
  out.trace = team.total_trace();
  out.max_clock = team.max_clock();
  return out;
}

// The reconciliation identities every EngineMode::On run must satisfy
// exactly.
void expect_engine_ledger(const TraceCounters& t, const std::string& label) {
  EXPECT_EQ(t.engine_tasks, t.copy_tasks + t.direct_tasks) << label;
  EXPECT_EQ(t.copy_tasks + t.direct_tasks, t.gemm_calls) << label;
}

TEST(Engine, BitwiseIdenticalAcrossLifetimesAndConfigs) {
  struct Case {
    MachineModel mm;
    ProcGrid grid;
    index_t m, n, k;
    SrummaOptions opt;
    RmaConfig cfg;
    const char* label;
  };
  std::vector<Case> cases;
  {
    Case c{MachineModel::testing(2, 2), ProcGrid{2, 2}, 24, 24, 24,
           SrummaOptions{}, RmaConfig{}, "default-2x2-cluster"};
    cases.push_back(c);
  }
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      Case c{MachineModel::testing(2, 2), ProcGrid{2, 2}, 15, 11, 19,
             SrummaOptions{}, RmaConfig{}, "transpose"};
      c.opt.ta = ta;
      c.opt.tb = tb;
      cases.push_back(c);
    }
  }
  {
    Case c{MachineModel::cray_x1(1), ProcGrid{2, 2}, 20, 20, 20,
           SrummaOptions{}, RmaConfig{}, "x1-copy-flavor"};
    c.opt.shm_flavor = ShmFlavor::Copy;
    cases.push_back(c);
  }
  {
    Case c{MachineModel::sgi_altix(4), ProcGrid{2, 2}, 20, 20, 20,
           SrummaOptions{}, RmaConfig{}, "altix-direct"};
    cases.push_back(c);
  }
  {
    Case c{MachineModel::testing(2, 2), ProcGrid{2, 2}, 24, 24, 24,
           SrummaOptions{}, RmaConfig{}, "blocking"};
    c.opt.nonblocking = false;
    cases.push_back(c);
  }
  {
    Case c{MachineModel::testing(3, 2), ProcGrid{3, 2}, 21, 10, 33,
           SrummaOptions{}, RmaConfig{}, "tiled-odd-dims"};
    c.opt.c_chunk = 6;
    c.opt.k_chunk = 5;
    cases.push_back(c);
  }
  {
    Case c{MachineModel::testing(2, 2), ProcGrid{2, 2}, 32, 32, 32,
           SrummaOptions{}, RmaConfig{}, "faults-verify"};
    fault::FaultConfig f;
    f.seed = 77;
    f.fail_rate = 0.05;
    f.corrupt_rate = 0.05;
    RetryPolicy rp;
    rp.max_attempts = 8;
    c.cfg.faults = f;
    c.cfg.retry = rp;
    c.opt.shm_flavor = ShmFlavor::Copy;
    c.opt.verify_checksums = true;
    c.opt.c_chunk = 8;
    cases.push_back(c);
  }
  {
    Case c{MachineModel::testing(2, 2), ProcGrid{2, 2}, 32, 32, 32,
           SrummaOptions{}, RmaConfig{}, "cache-on"};
    c.cfg.cache = true;
    c.cfg.cache_capacity = std::uint64_t{64} << 20;
    c.opt.c_chunk = 8;
    c.opt.ordering.a_reuse = false;  // make repeat touches visible to the cache
    cases.push_back(c);
  }
  {
    Case c{MachineModel::linux_myrinet(2), ProcGrid{2, 2}, 32, 32, 32,
           SrummaOptions{}, RmaConfig{}, "myrinet-multi-domain"};
    c.opt.c_chunk = 8;
    cases.push_back(c);
  }

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& sc = cases[i];
    const std::string label =
        std::string(sc.label) + " (case " + std::to_string(i) + ")";
    const std::uint64_t seed = 100 + i;
    EngineRun off = run_multiply(sc.mm, sc.grid, sc.m, sc.n, sc.k, sc.cfg,
                                 sc.opt, EngineMode::Off, seed);
    EngineRun on = run_multiply(sc.mm, sc.grid, sc.m, sc.n, sc.k, sc.cfg,
                                sc.opt, EngineMode::On, seed);
    EXPECT_EQ(max_abs_diff(on.c.view(), off.c.view()), 0.0) << label;
    // Both satisfy the classification identity; only EngineMode::On
    // counts the products it ran in engine_tasks.
    EXPECT_EQ(off.trace.copy_tasks + off.trace.direct_tasks,
              off.trace.gemm_calls)
        << label;
    EXPECT_EQ(off.trace.engine_tasks, 0u) << label;
    expect_engine_ledger(on.trace, label);
    EXPECT_GT(on.trace.engine_tasks, 0u) << label;
  }
}

// bench_steal's smoke configuration: four dual Myrinet nodes with node 1's
// links 8x slow, and C tiles of n/16, so each B patch is read once per C
// tile row.
struct StragglerCase {
  RmaConfig cfg;
  MachineModel mm = MachineModel::linux_myrinet(4);
  ProcGrid grid = ProcGrid::near_square(8);
  index_t n = 256;
  SrummaOptions opt;
  StragglerCase() {
    fault::FaultConfig f;
    f.straggler_node = 1;
    f.straggler_factor = 8.0;
    cfg.faults = f;
    opt.c_chunk = n / 16;
  }
  [[nodiscard]] EngineRun run(EngineMode mode) const {
    return run_multiply(mm, grid, n, n, n, cfg, opt, mode, 21, 1);
  }
};

TEST(Engine, PlanLifetimeBeatsWindowLifetimeUnderStraggler) {
  // Both lifetimes run the tasks in plan order.  The window lifetime drops
  // a B patch once no issued task reads it, so every C tile row fetches it
  // again, over the slow link whenever node 1 owns it; the plan lifetime
  // holds it until its last reader commits and fetches it once.  On one
  // harness worker every modeled number is reproducible, so the win is
  // asserted.
  const StragglerCase sc;
  const EngineRun off = sc.run(EngineMode::Off);
  const EngineRun on = sc.run(EngineMode::On);
  EXPECT_EQ(max_abs_diff(on.c.view(), off.c.view()), 0.0);
  expect_engine_ledger(on.trace, "straggler");
  EXPECT_EQ(on.trace.engine_tasks, off.trace.gemm_calls);
  EXPECT_LT(on.trace.gets, off.trace.gets);
  EXPECT_LE(on.max_clock, off.max_clock / 1.3)
      << "window lifetime " << off.max_clock << " vs, plan lifetime "
      << on.max_clock << " vs";

  const EngineRun again = sc.run(EngineMode::On);
  EXPECT_EQ(again.max_clock, on.max_clock);
#define SRUMMA_EXPECT_SAME(type, name, agg) \
  EXPECT_EQ(again.trace.name, on.trace.name) << #name;
  SRUMMA_TRACE_COUNTERS(SRUMMA_EXPECT_SAME)
#undef SRUMMA_EXPECT_SAME
}

TEST(Engine, WindowLifetimeHoldsOnlyTheIssueWindow) {
  // A window-lifetime slot lives while an issued task reads it, so a rank
  // never holds more than the operands of lookahead + 1 tasks.
  const StragglerCase sc;
  analysis::AnalysisConfig cfg;
  cfg.machine = sc.mm;
  cfg.options = sc.opt;
  cfg.m = cfg.n = cfg.k = sc.n;
  std::uint64_t bound = 0;
  for (const analysis::RankModel& rm :
       analysis::build_plan_model(cfg).ranks) {
    const TaskPlan& p = rm.plan;
    const auto patch = [](index_t m, index_t n) {
      return static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
             sizeof(double);
    };
    bound = std::max(bound, static_cast<std::uint64_t>(rm.lookahead + 1) *
                                (patch(p.max_a_m, p.max_a_n) +
                                 patch(p.max_b_m, p.max_b_n)));
  }
  const EngineRun off = sc.run(EngineMode::Off);
  EXPECT_GT(off.trace.buffer_bytes_peak, 0u);
  EXPECT_LE(off.trace.buffer_bytes_peak, bound);
}

TEST(Engine, PooledPhantomPlanLifetimeMatchesWindowTime) {
  // Four dual Myrinet nodes on one harness worker, one C tile per rank:
  // every patch has one reader, so the plan lifetime holds nothing longer
  // and must not trail the window lifetime.
  const MachineModel mm = MachineModel::linux_myrinet(4);
  const index_t n = 512;
  const auto elapsed = [&](EngineMode mode) {
    Team team(mm);
    team.set_execution(ExecMode::Pooled, 1);
    RmaRuntime rma(team);
    SrummaOptions opt;
    opt.engine = mode;
    const ProcGrid g = ProcGrid::near_square(team.size());
    team.run([&](Rank& me) {
      DistMatrix a(rma, me, n, n, g, true);
      DistMatrix b(rma, me, n, n, g, true);
      DistMatrix c(rma, me, n, n, g, true);
      (void)srumma_multiply(me, a, b, c, opt);
    });
    return team.max_clock();
  };
  const double pipeline = elapsed(EngineMode::Off);
  const double engine = elapsed(EngineMode::On);
  EXPECT_LE(engine, 1.001 * pipeline)
      << "window lifetime " << pipeline << " vs, plan lifetime " << engine
      << " vs";
}

TEST(Engine, BlockingFaultsCacheStayBitwiseAndReconciled) {
  // The hard corner all at once: blocking mode (no prefetch window), a
  // fault plane injecting failures and corruption (with the verify pass
  // repairing it), and the cooperative block cache sharing fetches.  Both
  // lifetimes must produce the exact serial result and keep their
  // accounting identities.
  fault::FaultConfig f;
  f.seed = 9;
  f.fail_rate = 0.1;
  f.corrupt_rate = 0.1;
  RetryPolicy rp;
  rp.max_attempts = 6;
  RmaConfig cfg;
  cfg.faults = f;
  cfg.retry = rp;
  cfg.cache = true;
  cfg.cache_capacity = std::uint64_t{64} << 20;
  SrummaOptions opt;
  opt.nonblocking = false;
  opt.shm_flavor = ShmFlavor::Copy;
  opt.verify_checksums = true;
  opt.c_chunk = 8;
  opt.k_chunk = 8;

  const index_t n = 32;
  // beta = 0 (the default), so both runs must reproduce A*B exactly no
  // matter what c_init held; fill seeds match run_multiply's (seed, seed+1).
  Matrix a_g(n, n), b_g(n, n), ref(n, n);
  fill_ints(a_g.view(), 40);
  fill_ints(b_g.view(), 41);
  ref.view().fill(0.0);
  testing::reference_gemm(Trans::No, Trans::No, 1.0, a_g, b_g, 0.0, ref);

  EngineRun off = run_multiply(MachineModel::testing(2, 2), ProcGrid{2, 2}, n,
                               n, n, cfg, opt, EngineMode::Off, 40);
  EngineRun on = run_multiply(MachineModel::testing(2, 2), ProcGrid{2, 2}, n,
                              n, n, cfg, opt, EngineMode::On, 40);
  EXPECT_EQ(max_abs_diff(off.c.view(), ref.view()), 0.0);
  EXPECT_EQ(max_abs_diff(on.c.view(), ref.view()), 0.0);
  EXPECT_EQ(off.trace.copy_tasks + off.trace.direct_tasks,
            off.trace.gemm_calls);
  expect_engine_ledger(on.trace, "blocking-faults-cache");
  EXPECT_GT(on.trace.faults_injected + on.trace.faults_corrupted, 0u);
}

TEST(Engine, EnvSelectionResolvesAutoOnly) {
  // EngineMode::Auto defers to SRUMMA_ENGINE; explicit modes ignore it.
  EXPECT_TRUE(engine::selected(EngineMode::On));
  EXPECT_FALSE(engine::selected(EngineMode::Off));
  // Auto's answer depends on the environment this test runs under (tier 1g
  // sets SRUMMA_ENGINE=1); both answers are legal, it just must not throw.
  (void)engine::selected(EngineMode::Auto);
}

}  // namespace
}  // namespace srumma
