// Dependency-driven task engine (src/engine, docs/ENGINE.md): the engine
// must produce bitwise-identical C to the static pipeline on every
// configuration (transposes, flavors, chunking, blocking mode, faults,
// cache), reconcile its steal ledger exactly
// (engine_tasks + tasks_stolen == copy_tasks + direct_tasks == gemm_calls),
// re-arm failed fetches without requeues, and steal only what virtual-time
// admission proves cannot stall the victim.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/srumma.hpp"
#include "engine/engine.hpp"
#include "tests/helpers.hpp"
#include "trace/tracer.hpp"

namespace srumma {
namespace {

using blas::Trans;

// Small-integer fill: every product and partial sum is exactly
// representable, so engine-vs-pipeline and engine-vs-serial comparisons can
// demand bitwise equality (diff exactly 0.0) rather than a tolerance.
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
  std::vector<std::vector<trace::TraceEvent>> events;  // per rank, if traced
};

EngineRun run_multiply(const MachineModel& mm, ProcGrid grid, index_t m,
                       index_t n, index_t k, const RmaConfig& cfg,
                       SrummaOptions opt, EngineMode mode,
                       std::uint64_t seed, bool traced = false) {
  opt.engine = mode;
  Team team(mm);
  if (traced) team.enable_tracer(trace::TracerConfig{});
  RmaRuntime rma(team, cfg);
  const bool tra = opt.ta == Trans::Yes;
  const bool trb = opt.tb == Trans::Yes;
  Matrix a_g(tra ? k : m, tra ? m : k);
  Matrix b_g(trb ? n : k, trb ? k : n);
  fill_ints(a_g.view(), seed);
  fill_ints(b_g.view(), seed + 1);
  Matrix c_init(m, n);
  fill_ints(c_init.view(), seed + 2);

  EngineRun out{Matrix(m, n), {}, {}, {}};
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
  if (traced)
    for (int r = 0; r < team.size(); ++r) {
      EXPECT_EQ(team.tracer_ptr()->dropped(r), 0u);
      out.events.push_back(team.tracer_ptr()->events(r));
    }
  return out;
}

// The admission guarantee: an owner never waits for a thief's publish, so
// every Handback span is exactly the intra-domain copy of its C tile
// (uncontended: latency + bytes / per-rank copy bandwidth).
void expect_handbacks_are_copies(const EngineRun& run, const MachineModel& mm,
                                 index_t tile_m, index_t tile_n) {
  const double copy = mm.shm_latency + static_cast<double>(tile_m) *
                                           static_cast<double>(tile_n) *
                                           sizeof(double) / mm.shm_bw;
  for (std::size_t r = 0; r < run.events.size(); ++r)
    for (const trace::TraceEvent& e : run.events[r]) {
      if (e.type == trace::EvType::Span && e.phase == trace::Phase::Handback) {
        EXPECT_NEAR(e.t1 - e.t0, copy, 1e-9 * copy)
            << "rank " << r << " waited on the thief of task " << e.arg;
      }
    }
}

// The reconciliation identities every engine run must satisfy exactly.
void expect_engine_ledger(const TraceCounters& t, const std::string& label) {
  EXPECT_EQ(t.engine_tasks + t.tasks_stolen, t.copy_tasks + t.direct_tasks)
      << label;
  EXPECT_EQ(t.copy_tasks + t.direct_tasks, t.gemm_calls) << label;
  EXPECT_EQ(t.task_requeues, 0u) << label;  // re-arm replaces requeue
}

TEST(Engine, BitwiseIdenticalToPipelineAcrossConfigs) {
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
    // The pipeline satisfies the classification identity; the engine adds
    // the steal ledger on top.
    EXPECT_EQ(off.trace.copy_tasks + off.trace.direct_tasks,
              off.trace.gemm_calls)
        << label;
    EXPECT_EQ(off.trace.engine_tasks + off.trace.tasks_stolen, 0u) << label;
    expect_engine_ledger(on.trace, label);
    EXPECT_GT(on.trace.engine_tasks, 0u) << label;
  }
}

TEST(Engine, StragglerStealsReconcileWithoutStallingVictims) {
  // Two dual-CPU nodes with node 1's links 8x slow: node 1's ranks see
  // their remote fetches land far in the virtual future, which raises
  // their horizons and lets a domain mate steal into the gap.  Whether a
  // steal happens at all depends on real-time interleaving; what admission
  // guarantees regardless is that no owner ever waits on a thief, the
  // stolen products land bitwise-identically, and the ledger is exact.
  fault::FaultConfig f;
  f.seed = 5;
  f.straggler_node = 1;
  f.straggler_factor = 8.0;
  RmaConfig cfg;
  cfg.faults = f;
  SrummaOptions opt;
  opt.c_chunk = 8;
  opt.k_chunk = 8;

  const index_t n = 64;
  EngineRun off = run_multiply(MachineModel::linux_myrinet(2), ProcGrid{2, 2},
                               n, n, n, cfg, opt, EngineMode::Off, 21);
  EngineRun on = run_multiply(MachineModel::linux_myrinet(2), ProcGrid{2, 2},
                              n, n, n, cfg, opt, EngineMode::On, 21, true);
  EXPECT_EQ(max_abs_diff(on.c.view(), off.c.view()), 0.0);
  expect_engine_ledger(on.trace, "straggler-steal");
  EXPECT_GT(on.trace.engine_tasks, 0u);
  expect_handbacks_are_copies(on, MachineModel::linux_myrinet(2), 8, 8);
}

TEST(Engine, StealAdmissionPredicate) {
  // A victim with horizon 0.625 whose tile chain sits at position 2, last
  // commit at 0.5; stealing costs 0.25 of virtual work.  (Binary-exact
  // values, so the inclusive bound below is tested exactly.)
  engine::StealBid bid;
  bid.cursor = 2;
  bid.pos = 2;
  bid.pred_vt = 0.5;
  bid.work_vt = 0.25;
  bid.horizon = 0.625;
  // A thief whose publish lands after the victim's horizon is denied.
  bid.thief_now = 0.5;
  EXPECT_FALSE(engine::steal_admitted(bid));
  bid.thief_now = 0.25;  // the predecessor commit still gates the publish
  EXPECT_FALSE(engine::steal_admitted(bid));
  // One whose publish lands by the horizon is admitted (the bound is
  // inclusive: publishing exactly at the horizon stalls nobody).
  bid.horizon = 0.75;
  EXPECT_TRUE(engine::steal_admitted(bid));
  bid.horizon = 4.0;
  bid.thief_now = 3.5;
  EXPECT_TRUE(engine::steal_admitted(bid));

  // A single-tile chain of 8 products: no claim ahead of the cursor is
  // ever admitted, however early the thief and however late the horizon.
  for (int cursor = 0; cursor < 8; ++cursor)
    for (int pos = cursor + 1; pos < 8; ++pos) {
      const engine::StealBid ahead{0.0, cursor, pos, 0.0, 1e-6, 1e9};
      EXPECT_FALSE(engine::steal_admitted(ahead))
          << "cursor " << cursor << " pos " << pos;
    }
}

TEST(Engine, PooledPhantomEngineMatchesPipelineTime) {
  // Four dual Myrinet nodes on one harness worker: every rank's plan runs
  // to completion inside a fiber slice, so without admission the first
  // ranks to finish in real time steal ahead-of-cursor work from mates
  // that are far behind in virtual time and freeze their commit chains.
  // Admission denies those steals; the engine must not trail the pipeline.
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
      << "pipeline " << pipeline << " vs, engine " << engine << " vs";
}

TEST(Engine, SingleDomainNeverSteals) {
  // One shared-memory domain: every operand is in-domain, the steal boards
  // stay empty, and the whole plan executes as owner work.
  EngineRun on = run_multiply(MachineModel::sgi_altix(4), ProcGrid{2, 2}, 24,
                              24, 24, RmaConfig{}, SrummaOptions{},
                              EngineMode::On, 33);
  expect_engine_ledger(on.trace, "single-domain");
  EXPECT_EQ(on.trace.tasks_stolen, 0u);
  EXPECT_GT(on.trace.engine_tasks, 0u);
}

TEST(Engine, BlockingFaultsCacheStayBitwiseAndReconciled) {
  // The hard corner all at once: blocking mode (no prefetch window), a
  // fault plane injecting failures and corruption (with the verify pass
  // repairing it), and the cooperative block cache sharing fetches.  Both
  // executors must produce the exact serial result and keep their
  // accounting identities; the engine must do it without a single requeue.
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
