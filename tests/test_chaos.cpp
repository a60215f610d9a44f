// Seeded chaos soak: a whole shared-memory domain fail-stops mid-multiply
// at each kill point (operand prefetch, commit-chain advance, barrier
// entry) under both executors with the cooperative cache on and off.  Every cell must run to completion, survivors must adopt the
// dead domain's commit chains from the buddy replicas, the gathered C must
// match the serial reference *bitwise*, and the task ledger must reconcile
// exactly (adopted work is counted on both sides of the identity).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/srumma.hpp"
#include "core/task_plan.hpp"
#include "fault/fault_plane.hpp"
#include "trace/report.hpp"
#include "trace/tracer.hpp"
#include "tests/helpers.hpp"

namespace srumma {
namespace {

// Small-integer fill: every product and partial sum is exactly
// representable, so a recovered run must match the serial reference
// bitwise — an adopted chain replayed out of plan order, a stale replica,
// or a lost contribution all show up as a nonzero difference.
void fill_ints(MatrixView v, std::uint64_t seed) {
  Rng rng(seed);
  for (index_t j = 0; j < v.cols(); ++j)
    for (index_t i = 0; i < v.rows(); ++i)
      v(i, j) = static_cast<double>(static_cast<int>(rng.below(9))) - 4.0;
}

struct ChaosRun {
  Matrix c;
  TraceCounters trace;
  // Traced runs only: every rank traced one TaskRearm per task_reissues.
  bool rearms_traced = true;
};

// One multiply on the 4-domain x 2-ranks testing machine with a permanent
// kill configured.  `c_seed != 0` prefills C (for beta accumulation);
// otherwise C starts zeroed.
ChaosRun run_chaos_multiply(const RmaConfig& cfg, const SrummaOptions& opt,
                            index_t n, std::uint64_t fill_seed,
                            std::uint64_t c_seed = 0, bool traced = false) {
  const MachineModel mm = MachineModel::testing(4, 2);
  const ProcGrid grid{4, 2};
  Team team(mm);
  if (traced) team.enable_tracer(trace::TracerConfig{});
  RmaRuntime rma(team, cfg);
  Matrix a_global(n, n), b_global(n, n), c_global(n, n);
  fill_ints(a_global.view(), fill_seed);
  fill_ints(b_global.view(), fill_seed + 1);
  if (c_seed != 0)
    fill_ints(c_global.view(), c_seed);
  else
    c_global.view().fill(0.0);

  ChaosRun out{Matrix(n, n), {}};
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, grid);
    DistMatrix b(rma, me, n, n, grid);
    DistMatrix c(rma, me, n, n, grid);
    a.scatter_from(me, a_global.view());
    b.scatter_from(me, b_global.view());
    c.scatter_from(me, c_global.view());
    srumma_multiply(me, a, b, c, opt);
    c.gather_to(me, out.c.view());
  });
  out.trace = team.total_trace();
  if (traced) {
    for (int r = 0; r < team.size(); ++r) {
      std::uint64_t rearms = 0;
      for (const trace::TraceEvent& e : team.tracer_ptr()->events(r))
        if (e.type == trace::EvType::Instant &&
            e.phase == trace::Phase::TaskRearm)
          ++rearms;
      if (rearms != team.rank(r).trace().task_reissues)
        out.rearms_traced = false;
    }
  }
  return out;
}

Matrix chaos_reference(index_t n, std::uint64_t fill_seed, double alpha,
                       double beta, std::uint64_t c_seed = 0) {
  Matrix a(n, n), b(n, n), c(n, n);
  fill_ints(a.view(), fill_seed);
  fill_ints(b.view(), fill_seed + 1);
  if (c_seed != 0)
    fill_ints(c.view(), c_seed);
  else
    c.view().fill(0.0);
  testing::reference_gemm(blas::Trans::No, blas::Trans::No, alpha, a, b, beta,
                          c);
  return c;
}

fault::FaultConfig kill_config(fault::KillPoint p, std::uint64_t seed = 99) {
  fault::FaultConfig f;
  f.seed = seed;
  f.kill_domain = 1;
  f.kill_point = p;
  f.kill_after_vtime = 0.0;
  f.buddy_offset = 1;
  return f;
}

const char* point_name(fault::KillPoint p) {
  switch (p) {
    case fault::KillPoint::Prefetch: return "prefetch";
    case fault::KillPoint::Chain: return "chain";
    case fault::KillPoint::Barrier: return "barrier";
    default: return "none";
  }
}

// The full sweep: kill point x executor x cache.  Every cell trips
// (docs/FAULTS.md §7): Prefetch and Chain inside either executor, Barrier
// at the recovery pre-barrier.
TEST(Chaos, KillPointSweepCompletesAndReconciles) {
  constexpr index_t n = 48;
  constexpr std::uint64_t fill_seed = 404;
  const Matrix ref = chaos_reference(n, fill_seed, 1.0, 0.0);

  const fault::KillPoint points[] = {fault::KillPoint::Prefetch,
                                     fault::KillPoint::Chain,
                                     fault::KillPoint::Barrier};
  for (const fault::KillPoint kp : points) {
    for (const bool engine : {false, true}) {
      for (const bool cache : {false, true}) {
        const std::string label = std::string(point_name(kp)) +
                                  (engine ? "/engine" : "/pipeline") +
                                  (cache ? "/cache" : "/nocache");
        RmaConfig cfg;
        cfg.faults = kill_config(kp);
        cfg.cache = cache;
        SrummaOptions opt;
        opt.engine = engine ? EngineMode::On : EngineMode::Off;
        const ChaosRun run = run_chaos_multiply(cfg, opt, n, fill_seed);
        const TraceCounters& t = run.trace;

        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < n; ++i)
            ASSERT_EQ(run.c.view()(i, j), ref.view()(i, j))
                << label << " C(" << i << "," << j << ")";

        // Ledger identity, adoption included: every dgemm is exactly one
        // pipeline task, engine task or adoption, and each is classified
        // copy xor direct.
        EXPECT_EQ(t.copy_tasks + t.direct_tasks, t.gemm_calls) << label;
        if (engine) {
          EXPECT_EQ(t.engine_tasks + t.tasks_adopted, t.gemm_calls) << label;
        } else {
          EXPECT_EQ(t.engine_tasks, 0u) << label;
        }
        EXPECT_GT(t.tasks_adopted, 0u) << label;
      }
    }
  }
}

// beta accumulation across a death: the buddy replica snapshots the
// beta-applied C before the kill hooks arm, so an adopted chain replays on
// top of the correct prior value.
TEST(Chaos, BetaAccumulationSurvivesDomainDeath) {
  constexpr index_t n = 48;
  constexpr std::uint64_t fill_seed = 505;
  constexpr std::uint64_t c_seed = 606;
  const Matrix ref = chaos_reference(n, fill_seed, 1.0, 2.0, c_seed);
  for (const bool engine : {false, true}) {
    RmaConfig cfg;
    cfg.faults = kill_config(fault::KillPoint::Chain);
    cfg.cache = true;
    SrummaOptions opt;
    opt.engine = engine ? EngineMode::On : EngineMode::Off;
    opt.beta = 2.0;
    const ChaosRun run = run_chaos_multiply(cfg, opt, n, fill_seed, c_seed);
    EXPECT_GT(run.trace.tasks_adopted, 0u);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i)
        ASSERT_EQ(run.c.view()(i, j), ref.view()(i, j))
            << (engine ? "engine" : "pipeline") << " C(" << i << "," << j
            << ")";
  }
}

// Permanent death layered on transient noise: random failures and payload
// corruption keep firing on the surviving links while the dead domain's
// chains are adopted.  Retries + checksums must still converge to the
// bitwise reference.
TEST(Chaos, SurvivesDeathUnderTransientNoise) {
  constexpr index_t n = 64;
  constexpr std::uint64_t fill_seed = 707;
  const Matrix ref = chaos_reference(n, fill_seed, 1.0, 0.0);
  fault::FaultConfig f = kill_config(fault::KillPoint::Chain, 1234);
  // Rates high enough that "no fault ever fired" is impossible in practice
  // even though the cooperative cache + warm recovery epoch leave far
  // fewer wire transfers to draw on than a cold run would (the number of
  // transfers also varies run to run with single-flight fetcher election).
  f.fail_rate = 0.15;
  f.corrupt_rate = 0.05;
  RetryPolicy rp;
  rp.max_attempts = 8;
  for (const bool engine : {false, true}) {
    RmaConfig cfg;
    cfg.faults = f;
    cfg.retry = rp;
    cfg.cache = true;
    SrummaOptions opt;
    opt.engine = engine ? EngineMode::On : EngineMode::Off;
    opt.verify_checksums = true;
    const ChaosRun run = run_chaos_multiply(cfg, opt, n, fill_seed);
    EXPECT_GT(run.trace.tasks_adopted, 0u);
    EXPECT_GT(run.trace.faults_injected, 0u);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i)
        ASSERT_EQ(run.c.view()(i, j), ref.view()(i, j))
            << (engine ? "engine" : "pipeline") << " C(" << i << "," << j
            << ")";
  }
}

// Permanent death on top of retry exhaustion: with two attempts per op,
// transfers keep running out of retries on every path — executor tasks,
// adopted replays, replica seeds and tile stores — and each is re-armed in
// place.  (SurvivesDeathUnderTransientNoise's eight attempts
// almost never reach the adopter's re-arm path.)
TEST(Chaos, SurvivesDeathUnderRetryExhaustion) {
  constexpr index_t n = 48;
  constexpr std::uint64_t fill_seed = 909;
  const Matrix ref = chaos_reference(n, fill_seed, 1.0, 0.0);
  fault::FaultConfig f = kill_config(fault::KillPoint::Chain, 4321);
  f.fail_rate = 0.3;
  RetryPolicy rp;
  rp.max_attempts = 2;
  for (const bool engine : {false, true}) {
    for (const bool cache : {false, true}) {
      const std::string label = std::string(engine ? "engine" : "pipeline") +
                                (cache ? "/cache" : "/nocache");
      RmaConfig cfg;
      cfg.faults = f;
      cfg.retry = rp;
      cfg.cache = cache;
      SrummaOptions opt;
      opt.engine = engine ? EngineMode::On : EngineMode::Off;
      opt.shm_flavor = ShmFlavor::Copy;  // every operand is fetched
      const ChaosRun run = run_chaos_multiply(cfg, opt, n, fill_seed,
                                              /*c_seed=*/0, /*traced=*/true);
      const TraceCounters& t = run.trace;
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i)
          ASSERT_EQ(run.c.view()(i, j), ref.view()(i, j))
              << label << " C(" << i << "," << j << ")";
      EXPECT_GT(t.tasks_adopted, 0u) << label;
      EXPECT_GT(t.task_reissues, 0u) << label;
      EXPECT_TRUE(run.rearms_traced) << label;
      EXPECT_EQ(t.copy_tasks + t.direct_tasks, t.gemm_calls) << label;
      if (engine) {
        EXPECT_EQ(t.engine_tasks + t.tasks_adopted, t.gemm_calls) << label;
      } else {
        EXPECT_EQ(t.engine_tasks, 0u) << label;
      }
    }
  }
}

// Both executors must reconstruct the *same* bits for the dead domain's
// tiles (the adopted replay is executor-independent: replica snapshot +
// plan-order chain).
TEST(Chaos, ExecutorsAgreeBitwiseOnAdoptedTiles) {
  constexpr index_t n = 48;
  constexpr std::uint64_t fill_seed = 808;
  RmaConfig cfg;
  cfg.faults = kill_config(fault::KillPoint::Prefetch);
  cfg.cache = true;
  SrummaOptions off, on;
  off.engine = EngineMode::Off;
  on.engine = EngineMode::On;
  const ChaosRun a = run_chaos_multiply(cfg, off, n, fill_seed);
  const ChaosRun b = run_chaos_multiply(cfg, on, n, fill_seed);
  EXPECT_GT(a.trace.tasks_adopted, 0u);
  EXPECT_GT(b.trace.tasks_adopted, 0u);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(a.c.view()(i, j), b.c.view()(i, j))
          << "C(" << i << "," << j << ")";
}

// One C = alpha op(A) B + beta C multiply of m x n x k on the same machine
// with uniform [-1, 1) data.  Unlike the small-integer fills above, a
// different accumulation order or k split rounds differently, so only a
// replay of the dead owner's own plan — its tuned tiling, in plan order —
// reproduces the fault-free bits.  `c_chunks`, when given, receives every
// rank's tuned c_chunk.
ChaosRun run_real_multiply(const RmaConfig& cfg, const SrummaOptions& opt,
                           index_t m, index_t n, index_t k,
                           std::vector<index_t>* c_chunks = nullptr) {
  const MachineModel mm = MachineModel::testing(4, 2);
  const ProcGrid grid{4, 2};
  Team team(mm);
  RmaRuntime rma(team, cfg);
  const bool tra = opt.ta == blas::Trans::Yes;
  const index_t am = tra ? k : m;
  const index_t an = tra ? m : k;
  Matrix a_global(am, an), b_global(k, n), c_global(m, n);
  fill_random(a_global.view(), 1101);
  fill_random(b_global.view(), 1102);
  fill_random(c_global.view(), 1103);
  ChaosRun out{Matrix(m, n), {}};
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, am, an, grid);
    DistMatrix b(rma, me, k, n, grid);
    DistMatrix c(rma, me, m, n, grid);
    a.scatter_from(me, a_global.view());
    b.scatter_from(me, b_global.view());
    c.scatter_from(me, c_global.view());
    if (c_chunks != nullptr)
      (*c_chunks)[static_cast<std::size_t>(me.id())] =
          tune_options(me.id(), me.machine(), a.layout(), b.layout(),
                       c.layout(), opt)
              .c_chunk;
    srumma_multiply(me, a, b, c, opt);
    c.gather_to(me, out.c.view());
  });
  out.trace = team.total_trace();
  return out;
}

// A killed run's C must be bitwise the fault-free run's C on real data, at
// every kill point x executor x cache, with op(A) transposed and not.  The
// buffer budget makes the dead domain tune a different tiling than the
// adopters, so an adopter that rebuilt the lost plans with its own rank id
// would replay the wrong chains.
TEST(Chaos, AdoptedTilesMatchFaultFreeBitwise) {
  constexpr index_t m = 61, n = 53, k = 47;
  const fault::KillPoint points[] = {fault::KillPoint::Prefetch,
                                     fault::KillPoint::Chain,
                                     fault::KillPoint::Barrier};
  for (const bool trans_a : {false, true}) {
    for (const bool engine : {false, true}) {
      for (const bool cache : {false, true}) {
        const std::string cfg_label = std::string(trans_a ? "At" : "A") +
                                      (engine ? "/engine" : "/pipeline") +
                                      (cache ? "/cache" : "/nocache");
        SrummaOptions opt;
        opt.ta = trans_a ? blas::Trans::Yes : blas::Trans::No;
        opt.alpha = 1.3;
        opt.beta = 0.7;
        opt.max_buffer_bytes = 20000;
        opt.engine = engine ? EngineMode::On : EngineMode::Off;
        RmaConfig clean;
        clean.cache = cache;
        std::vector<index_t> chunks(8);
        const ChaosRun ref = run_real_multiply(clean, opt, m, n, k, &chunks);
        // Domain 1 (ranks 2, 3) dies; ranks 4-7 tune another tiling.
        ASSERT_NE(chunks[2], chunks[4]) << cfg_label;
        for (const fault::KillPoint kp : points) {
          const std::string label = cfg_label + "/" + point_name(kp);
          RmaConfig cfg = clean;
          cfg.faults = kill_config(kp);
          const ChaosRun run = run_real_multiply(cfg, opt, m, n, k);
          EXPECT_GT(run.trace.tasks_adopted, 0u) << label;
          for (index_t j = 0; j < n; ++j)
            for (index_t i = 0; i < m; ++i)
              ASSERT_EQ(run.c.view()(i, j), ref.c.view()(i, j))
                  << label << " C(" << i << "," << j << ")";
        }
      }
    }
  }
}

// Install-time validation (docs/FAULTS.md): a kill configuration that can
// never fire or has no survivors is rejected at FaultPlane construction.
TEST(Chaos, KillConfigValidation) {
  const MachineModel mm = MachineModel::testing(4, 2);

  {  // kill_domain outside the machine's domains
    fault::FaultConfig f = kill_config(fault::KillPoint::Chain);
    f.kill_domain = 4;
    EXPECT_THROW(fault::FaultPlane(mm, f), Error);
  }
  {  // kill_domain without a kill point
    fault::FaultConfig f;
    f.kill_domain = 1;
    EXPECT_THROW(fault::FaultPlane(mm, f), Error);
  }
  {  // kill point without a kill_domain
    fault::FaultConfig f;
    f.kill_point = fault::KillPoint::Barrier;
    EXPECT_THROW(fault::FaultPlane(mm, f), Error);
  }
  {  // single-domain machine: no survivors to adopt
    fault::FaultConfig f = kill_config(fault::KillPoint::Chain);
    f.kill_domain = 0;
    EXPECT_THROW(fault::FaultPlane(MachineModel::testing(1, 4), f), Error);
  }
  {  // buddy_offset must keep the replica off the protected domain
    fault::FaultConfig f = kill_config(fault::KillPoint::Chain);
    f.buddy_offset = 0;
    EXPECT_THROW(fault::FaultPlane(mm, f), Error);
    f.buddy_offset = 4;
    EXPECT_THROW(fault::FaultPlane(mm, f), Error);
  }
  {  // a valid configuration constructs and reports itself
    fault::FaultConfig f = kill_config(fault::KillPoint::Prefetch);
    fault::FaultPlane fp(mm, f);
    EXPECT_TRUE(fp.kill_enabled());
    EXPECT_EQ(fp.kill_domain(), 1);
    EXPECT_EQ(fp.buddy_offset(), 1);
    EXPECT_FALSE(fp.domain_killed(1));
    EXPECT_FALSE(fp.any_domain_dead());
  }
}

// The kill trips only once armed, only at its configured point/domain, and
// never consumes an rng draw; declaration is sticky and idempotent.
TEST(Chaos, KillTripSemantics) {
  const MachineModel mm = MachineModel::testing(4, 2);
  fault::FaultConfig f = kill_config(fault::KillPoint::Chain);
  f.kill_after_vtime = 10.0;
  fault::FaultPlane fp(mm, f);

  // Unarmed: nothing trips.
  EXPECT_FALSE(fp.reach_kill_point(fault::KillPoint::Chain, 1, 99.0));
  fp.arm_kills();
  // Wrong point, wrong domain, too early: still alive.
  EXPECT_FALSE(fp.reach_kill_point(fault::KillPoint::Prefetch, 1, 99.0));
  EXPECT_FALSE(fp.reach_kill_point(fault::KillPoint::Chain, 2, 99.0));
  EXPECT_FALSE(fp.reach_kill_point(fault::KillPoint::Chain, 1, 9.0));
  EXPECT_FALSE(fp.domain_killed(1));
  // The configured point: trips, and stays tripped.
  EXPECT_TRUE(fp.reach_kill_point(fault::KillPoint::Chain, 1, 10.0));
  EXPECT_TRUE(fp.domain_killed(1));
  EXPECT_TRUE(fp.reach_kill_point(fault::KillPoint::Prefetch, 1, 0.0));
  EXPECT_FALSE(fp.domain_killed(2));
  // Killed -> direct segment access faults (Direct degrades to Copy).
  EXPECT_TRUE(fp.direct_faults(1));
  // Declaration is a separate, idempotent promotion.
  EXPECT_FALSE(fp.domain_dead(1));
  fp.declare_dead(1);
  fp.declare_dead(1);
  EXPECT_TRUE(fp.domain_dead(1));
  EXPECT_TRUE(fp.any_domain_dead());
  // reset() rewinds the whole fail-stop state for a replay.
  fp.reset();
  EXPECT_FALSE(fp.domain_killed(1));
  EXPECT_FALSE(fp.any_domain_dead());
}

}  // namespace
}  // namespace srumma
