// Fault injection, retry, timeout, and degradation: transient failures of
// every op kind are retried transparently, exhausted retries surface as
// status (try_wait) or errors (wait), a late accumulate is never replayed,
// dead shared-memory domains degrade Direct -> Copy, corrupted payloads are
// caught by the checksum pass and redone — and the whole fault plane
// replays exactly from its seed.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/srumma.hpp"
#include "msg/comm.hpp"
#include "trace/report.hpp"
#include "tests/helpers.hpp"

namespace srumma {
namespace {

// Small-integer fill: every product and partial sum is exactly
// representable, so a recovered run must match the serial reference
// *bitwise* — any surviving corruption or lost retry shows up as a
// nonzero difference.
void fill_ints(MatrixView v, std::uint64_t seed) {
  Rng rng(seed);
  for (index_t j = 0; j < v.cols(); ++j)
    for (index_t i = 0; i < v.rows(); ++i)
      v(i, j) = static_cast<double>(static_cast<int>(rng.below(9))) - 4.0;
}

struct FaultRun {
  Matrix c;
  MultiplyResult result;
  TraceCounters trace;
};

FaultRun run_fault_multiply(const MachineModel& mm, ProcGrid grid, index_t n,
                            const RmaConfig& cfg, const SrummaOptions& opt,
                            std::uint64_t fill_seed) {
  Team team(mm);
  RmaRuntime rma(team, cfg);
  Matrix a_global(n, n), b_global(n, n);
  fill_ints(a_global.view(), fill_seed);
  fill_ints(b_global.view(), fill_seed + 1);

  FaultRun out{Matrix(n, n), {}, {}};
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, grid);
    DistMatrix b(rma, me, n, n, grid);
    DistMatrix c(rma, me, n, n, grid);
    a.scatter_from(me, a_global.view());
    b.scatter_from(me, b_global.view());
    c.local_view(me).fill(0.0);
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) out.result = r;
    c.gather_to(me, out.c.view());
  });
  out.trace = team.total_trace();
  return out;
}

Matrix reference_product(index_t n, std::uint64_t fill_seed) {
  Matrix a(n, n), b(n, n), c(n, n);
  fill_ints(a.view(), fill_seed);
  fill_ints(b.view(), fill_seed + 1);
  c.view().fill(0.0);
  testing::reference_gemm(blas::Trans::No, blas::Trans::No, 1.0, a, b, 0.0, c);
  return c;
}

TEST(FaultPlane, AbsentByDefault) {
  // No SRUMMA_FAULT_* environment, no RmaConfig::faults: no plane, and
  // FaultConfig::from_env agrees.
  Team team(MachineModel::testing(2, 1));
  EXPECT_EQ(team.faults(), nullptr);
  EXPECT_FALSE(fault::FaultConfig::from_env().has_value());
}

// Install-time id checks: each id is -1 (none) or an id of the plane's
// machine, so an out-of-range id fails instead of running fault-free.
// Returns the srumma::Error message, or "" when the plane installs.
std::string install_error(const fault::FaultConfig& f) {
  try {
    fault::FaultPlane plane(MachineModel::testing(4, 2), f);  // 8 ranks
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(FaultPlane, RejectsOutOfRangeStragglerNode) {
  fault::FaultConfig f;
  for (int ok : {-1, 0, 3}) {
    f.straggler_node = ok;
    EXPECT_EQ(install_error(f), "") << ok;
  }
  for (int bad : {4, 9, -2}) {
    f.straggler_node = bad;
    const std::string msg = install_error(f);
    EXPECT_NE(msg.find("straggler_node " + std::to_string(bad) +
                       " out of range for a machine with 4 node(s)"),
              std::string::npos)
        << msg;
  }
}

TEST(FaultPlane, RejectsOutOfRangeOnlyRank) {
  fault::FaultConfig f;
  for (int ok : {-1, 0, 7}) {
    f.only_rank = ok;
    EXPECT_EQ(install_error(f), "") << ok;
  }
  for (int bad : {8, -2}) {
    f.only_rank = bad;
    const std::string msg = install_error(f);
    EXPECT_NE(msg.find("only_rank " + std::to_string(bad) +
                       " out of range for a machine with 8 rank(s)"),
              std::string::npos)
        << msg;
  }
}

TEST(FaultPlane, RejectsOutOfRangeOnlyPeer) {
  fault::FaultConfig f;
  for (int ok : {-1, 0, 7}) {
    f.only_peer = ok;
    EXPECT_EQ(install_error(f), "") << ok;
  }
  for (int bad : {8, -2}) {
    f.only_peer = bad;
    const std::string msg = install_error(f);
    EXPECT_NE(msg.find("only_peer " + std::to_string(bad) +
                       " out of range for a machine with 8 rank(s)"),
              std::string::npos)
        << msg;
  }
}

TEST(FaultPlane, KillKnobsDoNotShiftRandomStreams) {
  // The permanent kill (docs/FAULTS.md §7) is structural, not random:
  // reach_kill_point consumes NO rng draw.  Two planes with identical
  // random rates — one additionally configured to kill domain 1 at the
  // Chain point — must therefore produce bit-identical on_transfer /
  // on_message decision sequences, even with kill-point traffic (including
  // the trip itself) interleaved between every pair of draws.  Compared
  // call-by-call rather than run-by-run: a real killed run also changes
  // WHICH ops it issues after the death, but each (rank, seq) draw must
  // stay the same pure function of the seed.
  const MachineModel mm = MachineModel::testing(4, 2);
  fault::FaultConfig base;
  base.seed = 0xfeedbeef;
  base.fail_rate = 0.3;
  base.corrupt_rate = 0.2;
  base.delay_rate = 0.25;
  base.delay_factor = 4.0;
  fault::FaultConfig with_kill = base;
  with_kill.kill_domain = 1;
  with_kill.kill_point = fault::KillPoint::Chain;
  with_kill.buddy_offset = 1;

  fault::FaultPlane plain(mm, base);
  fault::FaultPlane killer(mm, with_kill);
  killer.arm_kills();

  for (int step = 0; step < 64; ++step) {
    const double vt = 1e-6 * step;
    // Non-matching point, matching point (trips on the first pass and is
    // idempotently re-reached on every later one), then the draws.
    (void)killer.reach_kill_point(fault::KillPoint::Prefetch, 0, vt);
    (void)killer.reach_kill_point(fault::KillPoint::Chain, 1, vt);
    for (int rank = 0; rank < mm.total_ranks(); ++rank) {
      const int peer = (rank + 1 + step) % mm.total_ranks();
      const fault::FaultDecision want = plain.on_transfer(rank, peer, vt);
      const fault::FaultDecision got = killer.on_transfer(rank, peer, vt);
      EXPECT_EQ(want.fail, got.fail) << "rank " << rank << " step " << step;
      EXPECT_EQ(want.corrupt, got.corrupt)
          << "rank " << rank << " step " << step;
      EXPECT_EQ(want.delay, got.delay) << "rank " << rank << " step " << step;
      EXPECT_EQ(plain.on_message(rank, peer, vt),
                killer.on_message(rank, peer, vt))
          << "rank " << rank << " step " << step;
    }
  }
  EXPECT_TRUE(killer.domain_killed(1));
  EXPECT_FALSE(plain.domain_killed(1));
}

TEST(FaultRecovery, TransientFailuresRetryTransparently) {
  Team team(MachineModel::testing(2, 1));
  fault::FaultConfig f;
  f.seed = 42;
  f.fail_rate = 0.3;
  RetryPolicy rp;
  rp.max_attempts = 12;
  RmaConfig cfg;
  cfg.faults = f;
  cfg.retry = rp;
  RmaRuntime rma(team, cfg);

  // Each rank's segment: a get source, then an 8 x 8 put area and an
  // 8 x 8 accumulate area that the peer writes.
  constexpr std::size_t kElems = 64;
  constexpr index_t kSide = 8;
  constexpr index_t kLdSrc = 11;  // strided origin buffer for puts
  constexpr int kRounds = 32;
  const auto put_value = [](int rank, int round, index_t i, index_t j) {
    return 10000.0 * rank + 100.0 * round + static_cast<double>(i + kSide * j);
  };
  team.run([&](Rank& me) {
    SymmetricRegion reg = rma.malloc_symmetric(me, 3 * kElems);
    double* mine = reg.base(me.id());
    for (std::size_t i = 0; i < kElems; ++i)
      mine[i] = 1000.0 * me.id() + static_cast<double>(i);
    me.barrier();

    const int peer = 1 - me.id();
    std::array<double, kElems> dst{};
    for (int round = 0; round < kRounds; ++round) {
      dst.fill(-1.0);
      RmaHandle h = rma.nbget(me, peer, reg.base(peer), dst.data(), kElems);
      rma.wait(me, h);
      EXPECT_EQ(h.status, RmaStatus::Ok);
      for (std::size_t i = 0; i < kElems; ++i)
        ASSERT_EQ(dst[i], 1000.0 * peer + static_cast<double>(i));
    }

    // A strided put into the peer's put area each round.
    std::uint64_t retries = me.trace().rma_retries;
    std::vector<double> src(static_cast<std::size_t>(kLdSrc * kSide), -1.0);
    for (int round = 0; round < kRounds; ++round) {
      for (index_t j = 0; j < kSide; ++j)
        for (index_t i = 0; i < kSide; ++i)
          src[static_cast<std::size_t>(i + j * kLdSrc)] =
              put_value(me.id(), round, i, j);
      RmaHandle h = rma.nbput2d(me, peer, src.data(), kLdSrc, kSide, kSide,
                                reg.base(peer) + kElems, kSide);
      rma.wait(me, h);
      EXPECT_EQ(h.status, RmaStatus::Ok);
    }
    EXPECT_GT(me.trace().rma_retries, retries);

    // An accumulate of ones into the peer's accumulate area each round.
    retries = me.trace().rma_retries;
    const std::vector<double> ones(kElems, 1.0);
    for (int round = 0; round < kRounds; ++round) {
      RmaHandle h = rma.nbacc2d(me, peer, 1.0, ones.data(), kSide, kSide,
                                kSide, reg.base(peer) + 2 * kElems, kSide);
      rma.wait(me, h);
      EXPECT_EQ(h.status, RmaStatus::Ok);
    }
    EXPECT_GT(me.trace().rma_retries, retries);
    me.barrier();

    // Exactly the last round's values, and exactly one add per round: a
    // failed accumulate attempt adds nothing.
    for (index_t j = 0; j < kSide; ++j)
      for (index_t i = 0; i < kSide; ++i)
        ASSERT_EQ(mine[kElems + static_cast<std::size_t>(i + kSide * j)],
                  put_value(peer, kRounds - 1, i, j));
    for (std::size_t i = 0; i < kElems; ++i)
      ASSERT_EQ(mine[2 * kElems + i], static_cast<double>(kRounds));
    me.barrier();
  });

  const TraceCounters t = team.total_trace();
  EXPECT_GT(t.faults_injected, 0u);
  EXPECT_GT(t.rma_retries, 0u);
  EXPECT_GT(t.time_recovery, 0.0);
}

TEST(FaultRecovery, ExhaustedRetriesSurfaceAsStatusOrError) {
  fault::FaultConfig f;
  f.fail_rate = 1.0;  // every transfer fails, every retry fails
  RetryPolicy rp;
  rp.max_attempts = 2;
  RmaConfig cfg;
  cfg.faults = f;
  cfg.retry = rp;

  {  // try_wait: status, no throw — and the failed transfer moved no data
    Team team(MachineModel::testing(2, 1));
    RmaRuntime rma(team, cfg);
    team.run([&](Rank& me) {
      SymmetricRegion reg = rma.malloc_symmetric(me, 8);
      reg.base(me.id())[0] = 3.25;
      me.barrier();
      double sentinel = -7.0;
      RmaHandle h = rma.nbget(me, 1 - me.id(), reg.base(1 - me.id()),
                              &sentinel, 1);
      EXPECT_EQ(rma.try_wait(me, h), RmaStatus::Error);
      EXPECT_FALSE(h.pending);
      EXPECT_EQ(h.status, RmaStatus::Error);
      EXPECT_EQ(h.attempts, 2);
      EXPECT_EQ(sentinel, -7.0);
      me.barrier();
    });
    EXPECT_EQ(team.total_trace().rma_retries, 2u);  // 1 retry per rank
  }

  {  // wait: throws, and Team::run rethrows the rank's error at call site
    Team team(MachineModel::testing(2, 1));
    RmaRuntime rma(team, cfg);
    try {
      team.run([&](Rank& me) {
        SymmetricRegion reg = rma.malloc_symmetric(me, 8);
        me.barrier();
        double x = 0.0;
        RmaHandle h =
            rma.nbget(me, 1 - me.id(), reg.base(1 - me.id()), &x, 1);
        rma.wait(me, h);
        FAIL() << "wait() must throw after exhausted retries";
      });
      FAIL() << "Team::run must rethrow the rank's error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("still failing"),
                std::string::npos);
    }
  }
}

TEST(FaultRecovery, OpTimeoutDoesNotReapplyAccumulate) {
  // A delayed-but-successful accumulate already applied its read-modify-
  // write at the owner when it was issued; the op-timeout channel must
  // count the overrun but keep the attempt — re-issuing would add
  // alpha*src a second time (silent numerical corruption).
  Team team(MachineModel::testing(2, 1));
  fault::FaultConfig f;
  f.delay_rate = 1.0;  // every op straggles...
  f.delay_factor = 50.0;
  RetryPolicy rp;
  rp.op_timeout = 1e-9;  // ...and every straggler blows the op deadline
  rp.max_attempts = 8;
  RmaConfig cfg;
  cfg.faults = f;
  cfg.retry = rp;
  RmaRuntime rma(team, cfg);

  constexpr index_t kRows = 1 << 10;
  team.run([&](Rank& me) {
    SymmetricRegion reg =
        rma.malloc_symmetric(me, static_cast<std::size_t>(kRows));
    double* mine = reg.base(me.id());
    for (index_t i = 0; i < kRows; ++i) mine[i] = 1.0;
    me.barrier();
    if (me.id() == 0) {
      std::vector<double> src(static_cast<std::size_t>(kRows), 2.0);
      RmaHandle h = rma.nbacc2d(me, 1, 3.0, src.data(), kRows, kRows, 1,
                                reg.base(1), kRows);
      rma.wait(me, h);
      EXPECT_EQ(h.status, RmaStatus::Ok);
      EXPECT_EQ(h.attempts, 1);  // never re-issued
    }
    me.barrier();
    if (me.id() == 1) {
      for (index_t i = 0; i < kRows; ++i)
        ASSERT_EQ(mine[i], 1.0 + 3.0 * 2.0);  // applied exactly once
    }
    me.barrier();
  });
  EXPECT_GT(team.total_trace().rma_op_timeouts, 0u);
  EXPECT_EQ(team.total_trace().rma_retries, 0u);
}

TEST(FaultRecovery, SameDomainEagerSendsDrawNoDelay) {
  // The intra-domain eager handoff schedules no wire, so the delay channel
  // must not be drawn there — a drawn factor would inflate faults_delayed
  // with delays that had no effect.
  fault::FaultConfig f;
  f.delay_rate = 1.0;
  auto eager_exchange = [&](const MachineModel& mm) {
    Team team(mm);
    team.set_fault_plane(
        std::make_shared<fault::FaultPlane>(team.machine(), f));
    Comm comm(team);
    const std::array<double, 4> buf{1.0, 2.0, 3.0, 4.0};
    team.run([&](Rank& me) {
      if (me.id() == 0) {
        comm.send(me, 1, 7, buf.data(), buf.size());
      } else {
        std::array<double, 4> r{};
        comm.recv(me, 0, 7, r.data(), r.size());
        for (std::size_t i = 0; i < r.size(); ++i) ASSERT_EQ(r[i], buf[i]);
      }
    });
    return team.total_trace().faults_delayed;
  };
  // Same domain: no wire, no draw, counter stays zero.
  EXPECT_EQ(eager_exchange(MachineModel::testing(1, 2)), 0u);
  // Inter-node: the factor really stretches the wire and is counted.
  EXPECT_GT(eager_exchange(MachineModel::testing(2, 1)), 0u);
}

TEST(FaultRecovery, DeadDomainFallsBackToCopy) {
  fault::FaultConfig f;
  f.dead_domain = 1;
  RmaConfig cfg;
  cfg.faults = f;
  SrummaOptions opt;
  opt.shm_flavor = ShmFlavor::Direct;

  const index_t n = 32;
  FaultRun run = run_fault_multiply(MachineModel::testing(2, 2),
                                    ProcGrid{2, 2}, n, cfg, opt, 7);
  EXPECT_EQ(max_abs_diff(run.c.view(), reference_product(n, 7).view()), 0.0);
  EXPECT_GT(run.trace.shm_fallbacks, 0u);

  // The clean run uses direct access where the degraded one paid copies.
  FaultRun clean = run_fault_multiply(MachineModel::testing(2, 2),
                                      ProcGrid{2, 2}, n, RmaConfig{}, opt, 7);
  EXPECT_EQ(clean.trace.shm_fallbacks, 0u);
  EXPECT_GT(run.trace.copy_tasks, clean.trace.copy_tasks);
}

TEST(FaultRecovery, ChecksumPassRepairsCorruption) {
  fault::FaultConfig f;
  f.seed = 99;
  f.corrupt_rate = 0.3;
  RmaConfig cfg;
  cfg.faults = f;
  SrummaOptions opt;
  opt.shm_flavor = ShmFlavor::Copy;  // every operand is fetched

  const index_t n = 32;
  const Matrix ref = reference_product(n, 5);

  // Without verification the injected bit flips land in C...
  SrummaOptions off = opt;
  FaultRun bad = run_fault_multiply(MachineModel::testing(2, 2),
                                    ProcGrid{2, 2}, n, cfg, off, 5);
  EXPECT_GT(bad.trace.faults_corrupted, 0u);
  EXPECT_GT(max_abs_diff(bad.c.view(), ref.view()), 0.0);

  // ...with it, every corrupt patch is refetched before dgemm consumes it.
  opt.verify_checksums = true;
  FaultRun good = run_fault_multiply(MachineModel::testing(2, 2),
                                     ProcGrid{2, 2}, n, cfg, opt, 5);
  EXPECT_GT(good.trace.faults_corrupted, 0u);
  EXPECT_GT(good.trace.checksum_redos, 0u);
  EXPECT_GT(good.trace.time_recovery, 0.0);
  EXPECT_EQ(max_abs_diff(good.c.view(), ref.view()), 0.0);
}

// The acceptance bar: failures, corruption, and a straggler link all at
// once; the pipeline must finish, match the serial reference bitwise, and
// replay identically — per seed — run over run.
TEST(FaultRecovery, RecoversBitwiseAcrossSeedsDeterministically) {
  const index_t n = 48;
  SrummaOptions opt;
  opt.shm_flavor = ShmFlavor::Copy;
  opt.verify_checksums = true;
  opt.c_chunk = 12;
  opt.k_chunk = 8;

  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    fault::FaultConfig f;
    f.seed = seed;
    f.fail_rate = 0.03;
    f.corrupt_rate = 0.03;
    f.delay_rate = 0.05;
    f.straggler_node = 1;
    RetryPolicy rp;
    rp.max_attempts = 8;
    RmaConfig cfg;
    cfg.faults = f;
    cfg.retry = rp;

    const Matrix ref = reference_product(n, seed);
    FaultRun r1 = run_fault_multiply(MachineModel::testing(2, 2),
                                     ProcGrid{2, 2}, n, cfg, opt, seed);
    EXPECT_EQ(max_abs_diff(r1.c.view(), ref.view()), 0.0)
        << "seed " << seed;
    EXPECT_GT(r1.trace.faults_injected + r1.trace.faults_corrupted, 0u)
        << "seed " << seed;
    EXPECT_GT(r1.trace.rma_retries + r1.trace.checksum_redos +
                  r1.trace.task_reissues,
              0u)
        << "seed " << seed;

    // Exact replay: fresh team, same seed, bit-identical result and an
    // identical fault/recovery schedule.  (Virtual *makespan* is only
    // deterministic up to the contention model's first-fit gap placement,
    // which resolves overlapping NIC reservations in booking order — the
    // decision streams and the data path replay exactly.)
    FaultRun r2 = run_fault_multiply(MachineModel::testing(2, 2),
                                     ProcGrid{2, 2}, n, cfg, opt, seed);
    EXPECT_EQ(max_abs_diff(r2.c.view(), r1.c.view()), 0.0) << "seed " << seed;
    EXPECT_EQ(r2.trace.faults_injected, r1.trace.faults_injected)
        << "seed " << seed;
    EXPECT_EQ(r2.trace.faults_corrupted, r1.trace.faults_corrupted)
        << "seed " << seed;
    EXPECT_EQ(r2.trace.faults_delayed, r1.trace.faults_delayed)
        << "seed " << seed;
    EXPECT_EQ(r2.trace.rma_retries, r1.trace.rma_retries) << "seed " << seed;
    EXPECT_EQ(r2.trace.checksum_redos, r1.trace.checksum_redos)
        << "seed " << seed;
    EXPECT_EQ(r2.trace.task_reissues, r1.trace.task_reissues)
        << "seed " << seed;
  }
}

TEST(FaultRecovery, ClassificationReconcilesExactlyUnderReArms) {
  // Accounting identity: copy_tasks + direct_tasks must equal the block
  // products actually executed (gemm_calls) — exactly, even when operand
  // fetches exhaust their RMA retries and are re-armed.  The regression
  // this guards: classifying at *issue* time counts a re-armed task twice,
  // and the copy/direct split drifts from the work done.
  fault::FaultConfig f;
  f.seed = 31;
  f.fail_rate = 0.45;
  RetryPolicy rp;
  rp.max_attempts = 2;  // exhaustion is common -> plenty of re-arms
  RmaConfig cfg;
  cfg.faults = f;
  cfg.retry = rp;
  SrummaOptions opt;
  opt.shm_flavor = ShmFlavor::Copy;  // every operand is fetched
  opt.c_chunk = 8;
  opt.k_chunk = 8;

  const index_t n = 32;
  const Matrix ref = reference_product(n, 13);

  // Static pipeline: a failed operand is re-armed in place; the fresh
  // fetches count as reissues, never as new products.
  opt.engine = EngineMode::Off;
  FaultRun pipe = run_fault_multiply(MachineModel::testing(2, 2),
                                     ProcGrid{2, 2}, n, cfg, opt, 13);
  EXPECT_EQ(max_abs_diff(pipe.c.view(), ref.view()), 0.0);
  EXPECT_GT(pipe.trace.task_reissues, 0u);
  EXPECT_EQ(pipe.trace.copy_tasks + pipe.trace.direct_tasks,
            pipe.trace.gemm_calls);
  EXPECT_EQ(pipe.trace.direct_tasks, 0u);  // Copy flavor: nothing direct

  // Task engine: the same re-arm and reissue counter, and its ledger
  // reconciles against the classes.
  opt.engine = EngineMode::On;
  FaultRun eng = run_fault_multiply(MachineModel::testing(2, 2),
                                    ProcGrid{2, 2}, n, cfg, opt, 13);
  EXPECT_EQ(max_abs_diff(eng.c.view(), ref.view()), 0.0);
  EXPECT_GT(eng.trace.task_reissues, 0u);
  EXPECT_EQ(eng.trace.copy_tasks + eng.trace.direct_tasks,
            eng.trace.gemm_calls);
  EXPECT_EQ(eng.trace.engine_tasks,
            eng.trace.copy_tasks + eng.trace.direct_tasks);
}

TEST(FaultRecovery, PipelineReArmsSharedAPatchInPlace) {
  // An A patch that several in-flight pipeline tasks read (Section 3.1's A
  // reuse) and whose fetch exhausts its retries is re-armed in place by
  // its first consumer, so the later consumers read the refetched bytes —
  // never the failed buffer, and never a second product.
  fault::FaultConfig f;
  f.seed = 47;
  f.fail_rate = 0.45;
  RetryPolicy rp;
  rp.max_attempts = 2;
  RmaConfig cfg;
  cfg.faults = f;
  cfg.retry = rp;
  SrummaOptions opt;
  opt.engine = EngineMode::Off;
  opt.shm_flavor = ShmFlavor::Copy;
  opt.lookahead = 3;
  opt.c_chunk = 8;
  opt.k_chunk = 8;
  const index_t n = 32;
  const MachineModel mm = MachineModel::testing(2, 2);
  const ProcGrid grid{2, 2};

  // The case is real: every rank's plan has consecutive tasks on one A
  // patch, so a consumer of a failed A patch is always still in flight.
  const MatrixLayout layout(n, n, grid);
  for (int r = 0; r < mm.total_ranks(); ++r) {
    const TaskPlan plan = build_task_plan(r, mm, layout, layout, layout, opt);
    std::size_t shared = 0;
    for (std::size_t t = 1; t < plan.tasks.size(); ++t) {
      const Task& x = plan.tasks[t - 1];
      const Task& y = plan.tasks[t];
      if (x.a_i0 == y.a_i0 && x.a_j0 == y.a_j0 && x.a_m == y.a_m &&
          x.a_n == y.a_n)
        ++shared;
    }
    EXPECT_GT(shared, 0u) << "rank " << r;
  }

  const Matrix ref = reference_product(n, 17);
  FaultRun run = run_fault_multiply(mm, grid, n, cfg, opt, 17);
  EXPECT_EQ(max_abs_diff(run.c.view(), ref.view()), 0.0);
  EXPECT_GT(run.trace.task_reissues, 0u);
  EXPECT_EQ(run.trace.copy_tasks + run.trace.direct_tasks,
            run.trace.gemm_calls);
}

TEST(FaultRecovery, CheckerStaysCleanUnderRetries) {
  // A retried op must be a fresh checker op, not a double-wait on the old
  // one: with the shadow-state checker in throw mode, completing at all is
  // the assertion.
  fault::FaultConfig f;
  f.seed = 3;
  f.fail_rate = 0.4;
  RetryPolicy rp;
  rp.max_attempts = 16;
  RmaConfig cfg;
  cfg.check = true;
  cfg.faults = f;
  cfg.retry = rp;
  SrummaOptions opt;
  opt.shm_flavor = ShmFlavor::Copy;

  const index_t n = 24;
  FaultRun run = run_fault_multiply(MachineModel::testing(2, 2),
                                    ProcGrid{2, 2}, n, cfg, opt, 9);
  EXPECT_EQ(max_abs_diff(run.c.view(), reference_product(n, 9).view()), 0.0);
  EXPECT_GT(run.trace.rma_retries, 0u);
}

TEST(FaultRecovery, TraceReportShowsRecovery) {
  fault::FaultConfig f;
  f.seed = 17;
  f.fail_rate = 0.1;
  RetryPolicy rp;
  rp.max_attempts = 10;
  RmaConfig cfg;
  cfg.faults = f;
  cfg.retry = rp;
  SrummaOptions opt;
  opt.shm_flavor = ShmFlavor::Copy;

  FaultRun noisy = run_fault_multiply(MachineModel::testing(2, 2),
                                      ProcGrid{2, 2}, 32, cfg, opt, 4);
  EXPECT_NE(describe(noisy.result).find("recovery:"), std::string::npos);

  FaultRun clean = run_fault_multiply(MachineModel::testing(2, 2),
                                      ProcGrid{2, 2}, 32, RmaConfig{}, opt, 4);
  EXPECT_EQ(describe(clean.result).find("recovery:"), std::string::npos);
  EXPECT_EQ(clean.trace.faults_injected, 0u);
  EXPECT_EQ(clean.trace.rma_retries, 0u);
  EXPECT_EQ(clean.trace.time_recovery, 0.0);
}

TEST(FaultRecovery, MsgStragglerSlowsRendezvous) {
  // Same rendezvous exchange with and without a straggler link on node 1:
  // the wire time must stretch by roughly the configured factor.
  constexpr std::size_t kElems = 1 << 16;  // rendezvous-sized
  auto exchange_time = [&](double straggler_factor) {
    Team team(MachineModel::testing(2, 1));
    if (straggler_factor > 1.0) {
      fault::FaultConfig f;
      f.straggler_node = 1;
      f.straggler_factor = straggler_factor;
      team.set_fault_plane(
          std::make_shared<fault::FaultPlane>(team.machine(), f));
    }
    Comm comm(team);
    std::vector<double> buf(kElems, 1.0);
    team.run([&](Rank& me) {
      if (me.id() == 0) {
        comm.send(me, 1, 5, buf.data(), kElems);
      } else {
        std::vector<double> r(kElems);
        comm.recv(me, 0, 5, r.data(), kElems);
      }
    });
    return team.max_clock();
  };

  const double t_clean = exchange_time(1.0);
  const double t_slow = exchange_time(8.0);
  EXPECT_GT(t_slow, 3.0 * t_clean);
}

}  // namespace
}  // namespace srumma
