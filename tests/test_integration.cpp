// Integration tests: cross-algorithm agreement on real data, and the
// paper's qualitative claims expressed as assertions over the virtual-time
// model (who wins, what helps, where the effects come from).

#include <gtest/gtest.h>

#include "baselines/cannon.hpp"
#include "baselines/summa.hpp"
#include "core/srumma.hpp"
#include "perf/model.hpp"
#include "tests/helpers.hpp"

namespace srumma {
namespace {

using blas::Trans;

TEST(Integration, SrummaAndSummaProduceTheSameProduct) {
  Team team(MachineModel::testing(2, 2));
  RmaRuntime rma(team);
  Comm comm(team);
  Matrix a_g = testing::coords_matrix(20, 24);
  Matrix b_g(24, 16);
  fill_random(b_g.view(), 9);
  Matrix c_srumma(20, 16), c_summa(20, 16);
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, 20, 24, ProcGrid{2, 2});
    DistMatrix b(rma, me, 24, 16, ProcGrid{2, 2});
    DistMatrix c1(rma, me, 20, 16, ProcGrid{2, 2});
    DistMatrix c2(rma, me, 20, 16, ProcGrid{2, 2});
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    srumma_multiply(me, a, b, c1, SrummaOptions{});
    summa_multiply(me, comm, a, b, c2, SummaOptions{});
    c1.gather_to(me, c_srumma.view());
    c2.gather_to(me, c_summa.view());
  });
  EXPECT_LE(max_abs_diff(c_srumma.view(), c_summa.view()),
            testing::gemm_tolerance(24));
}

// Phantom SRUMMA run on a machine; returns team-level result.  Every test
// built on this helper asserts the static pipeline's timing-model shapes
// (who wins, what helps, how close to eq. (3)); the task engine's
// out-of-order schedule legitimately changes those, so pin it off
// regardless of SRUMMA_ENGINE.  The numerical-agreement tests above/below
// call srumma_multiply directly and do honor the env selection.
MultiplyResult run_srumma(Team& team, RmaRuntime& rma, index_t n, ProcGrid g,
                          SrummaOptions opt) {
  opt.engine = EngineMode::Off;
  MultiplyResult out;
  team.reset();
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, g, true);
    DistMatrix b(rma, me, n, n, g, true);
    DistMatrix c(rma, me, n, n, g, true);
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) out = r;
  });
  return out;
}

MultiplyResult run_pdgemm(Team& team, RmaRuntime& rma, Comm& comm, index_t n,
                          ProcGrid g, PdgemmOptions opt) {
  MultiplyResult out;
  team.reset();
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, g, true);
    DistMatrix b(rma, me, n, n, g, true);
    DistMatrix c(rma, me, n, n, g, true);
    MultiplyResult r = pdgemm_model(me, comm, a, b, c, opt);
    if (me.id() == 0) out = r;
  });
  return out;
}

TEST(Integration, SrummaBeatsPdgemmOnEveryPaperPlatform) {
  // The headline claim (Fig. 10): SRUMMA outperforms pdgemm on all four
  // platform models.  N = 2000 on 16 ranks.
  struct P {
    MachineModel m;
    const char* name;
  };
  const P platforms[] = {
      {MachineModel::linux_myrinet(8), "Linux-Myrinet"},
      {MachineModel::ibm_sp(1), "IBM-SP"},
      {MachineModel::cray_x1(4), "Cray-X1"},
      {MachineModel::sgi_altix(16), "SGI-Altix"},
  };
  for (const auto& p : platforms) {
    Team team(p.m);
    RmaRuntime rma(team);
    Comm comm(team);
    const ProcGrid g = ProcGrid::near_square(team.size());
    SrummaOptions sopt;
    if (!p.m.remote_cacheable) sopt.shm_flavor = ShmFlavor::Copy;
    const MultiplyResult s = run_srumma(team, rma, 2000, g, sopt);
    const MultiplyResult d = run_pdgemm(team, rma, comm, 2000, g, {});
    EXPECT_LT(s.elapsed, d.elapsed) << p.name;
  }
}

TEST(Integration, OverlapExceeds90PercentOnLinuxCluster) {
  // Paper Section 4: "we were able to overlap 90% of the communication with
  // computation" on the Linux cluster.
  Team team(MachineModel::linux_myrinet(8));
  RmaRuntime rma(team);
  const MultiplyResult r =
      run_srumma(team, rma, 2000, ProcGrid::near_square(16), SrummaOptions{});
  EXPECT_GT(r.overlap, 0.9);
}

TEST(Integration, NonblockingAndZeroCopyBothMatter) {
  // Fig. 9: four protocol arms on the Linux/Myrinet model.  Nonblocking
  // beats blocking; zero-copy beats host-assisted; the full combination
  // wins and the degradations compose.
  Team team(MachineModel::linux_myrinet(8));
  const ProcGrid g = ProcGrid::near_square(16);
  // N in the communication-sensitive regime: every pairwise margin is
  // >=10%, well clear of the model's scheduling/noise jitter.
  const index_t n = 1000;
  double t[2][2];  // [nonblocking][zero_copy]
  for (int nb = 0; nb < 2; ++nb) {
    for (int zc = 0; zc < 2; ++zc) {
      RmaConfig rc;
      rc.zero_copy = zc == 1;
      RmaRuntime rma(team, rc);
      SrummaOptions opt;
      opt.nonblocking = nb == 1;
      t[nb][zc] = run_srumma(team, rma, n, g, opt).elapsed;
    }
  }
  EXPECT_LT(t[1][1], t[0][1]);  // nonblocking helps with zero-copy
  EXPECT_LT(t[1][1], t[1][0]);  // zero-copy helps with nonblocking
  EXPECT_LT(t[1][1], t[0][0]);  // full protocol is best overall
}

TEST(Integration, CopyBeatsDirectOnX1AndNotOnAltix) {
  // Fig. 5: on the Cray X1 (non-cacheable remote memory) the copy-based
  // flavor wins; on the SGI Altix direct access wins.
  const index_t n = 2000;
  {
    Team team(MachineModel::cray_x1(4));  // 16 MSPs
    RmaRuntime rma(team);
    const ProcGrid g = ProcGrid::near_square(16);
    SrummaOptions direct;
    direct.shm_flavor = ShmFlavor::Direct;
    SrummaOptions copy;
    copy.shm_flavor = ShmFlavor::Copy;
    EXPECT_LT(run_srumma(team, rma, n, g, copy).elapsed,
              run_srumma(team, rma, n, g, direct).elapsed);
  }
  {
    // On the Altix the margin is tiny at 16 CPUs (within the model's OS
    // noise) and grows with P — the paper: "the gap between these two
    // algorithms actually increases for larger processor counts".  Assert
    // at 64 CPUs where the direction is unambiguous.
    Team team(MachineModel::sgi_altix(64));
    RmaRuntime rma(team);
    const ProcGrid g = ProcGrid::near_square(64);
    SrummaOptions direct;
    direct.shm_flavor = ShmFlavor::Direct;
    SrummaOptions copy;
    copy.shm_flavor = ShmFlavor::Copy;
    EXPECT_LT(run_srumma(team, rma, n, g, direct).elapsed,
              run_srumma(team, rma, n, g, copy).elapsed);
  }
}

TEST(Integration, DiagonalShiftReducesContention) {
  // Fig. 4 / Section 3.1: on a many-way SMP cluster the diagonal shift
  // lowers the time by spreading first-step gets across source nodes.
  Team team(MachineModel::ibm_sp(4));  // 4 x 16-way nodes
  RmaRuntime rma(team);
  const ProcGrid g = ProcGrid::near_square(team.size());
  SrummaOptions with;
  with.ordering = OrderingPolicy{true, true, false};
  SrummaOptions without;
  without.ordering = OrderingPolicy{true, false, false};
  // N chosen in the communication-bound regime where the first-step
  // convoy is visible (at large N the pipeline hides everything anyway).
  const double t_with = run_srumma(team, rma, 2048, g, with).elapsed;
  const double t_without = run_srumma(team, rma, 2048, g, without).elapsed;
  EXPECT_LT(t_with, t_without * 0.95);  // a real, >5% improvement
}

TEST(Integration, ShmFirstOrderingImprovesOverlap) {
  // Starting with shared-memory tasks primes the pipeline (Section 3.1
  // step 2): overlap with shm-first must be at least as good as naive.
  Team team(MachineModel::ibm_sp(2));
  RmaRuntime rma(team);
  const ProcGrid g = ProcGrid::near_square(team.size());
  SrummaOptions naive;
  naive.ordering = OrderingPolicy::naive();
  SrummaOptions shm;
  shm.ordering = OrderingPolicy{true, false, false};
  const MultiplyResult rn = run_srumma(team, rma, 2048, g, naive);
  const MultiplyResult rs = run_srumma(team, rma, 2048, g, shm);
  EXPECT_GE(rs.overlap + 1e-9, rn.overlap);
  EXPECT_LE(rs.elapsed, rn.elapsed * 1.02);
}

TEST(Integration, MeasuredTimeTracksAnalyticModel) {
  // In the compute-dominated regime the virtual time must sit near eq. (3)
  // with high overlap (within 2x — the model ignores grid asymmetry and
  // block-size effects).
  Team team(MachineModel::linux_myrinet(8));
  RmaRuntime rma(team);
  const index_t n = 4000;
  const MultiplyResult r =
      run_srumma(team, rma, n, ProcGrid::near_square(16), SrummaOptions{});
  const auto params =
      perf::params_from_machine(team.machine(), n / 4);  // block-sized rate
  const double predicted = perf::t_par_rma_overlap(
      static_cast<double>(n), 16.0, params, 1.0 - r.overlap);
  EXPECT_LT(r.elapsed, predicted * 2.0);
  EXPECT_GT(r.elapsed, predicted * 0.5);
}

TEST(Integration, ScalingImprovesWithMoreProcessors) {
  // Same N, more ranks => lower virtual time (the regime Fig. 10 plots).
  const index_t n = 4000;
  double prev = 1e100;
  for (int nodes : {2, 8, 32}) {
    Team team(MachineModel::linux_myrinet(nodes));
    RmaRuntime rma(team);
    const MultiplyResult r = run_srumma(
        team, rma, n, ProcGrid::near_square(team.size()), SrummaOptions{});
    EXPECT_LT(r.elapsed, prev);
    prev = r.elapsed;
  }
}

TEST(Integration, SmallMatricesAtHighPLoseEfficiency) {
  // Section 4.2: "performance degrades for smaller matrices on larger
  // processor counts" — efficiency at N=600 on 64 ranks is far below
  // efficiency at N=4000 on 64 ranks.
  Team team(MachineModel::linux_myrinet(32));
  RmaRuntime rma(team);
  const ProcGrid g = ProcGrid::near_square(64);
  const MultiplyResult small = run_srumma(team, rma, 600, g, SrummaOptions{});
  const MultiplyResult large = run_srumma(team, rma, 4000, g, SrummaOptions{});
  EXPECT_LT(small.gflops, large.gflops * 0.6);
}

TEST(Integration, CannonAndSrummaAgreeNumerically) {
  const index_t n = 18;
  Team team(MachineModel::testing(4, 1));
  RmaRuntime rma(team);
  Comm comm(team);
  Matrix a_g = testing::coords_matrix(n, n);
  Matrix b_g(n, n);
  fill_random(b_g.view(), 2);
  Matrix c_srumma(n, n), c_cannon(n, n);
  const index_t blk = cannon_block(n, 2);
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, ProcGrid{2, 2});
    DistMatrix b(rma, me, n, n, ProcGrid{2, 2});
    DistMatrix c(rma, me, n, n, ProcGrid{2, 2});
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    srumma_multiply(me, a, b, c, SrummaOptions{});
    c.gather_to(me, c_srumma.view());

    // Cannon on the same data via padded blocks.
    Matrix ab(blk, blk), bb(blk, blk), cb(blk, blk);
    const int pi = me.id() % 2, pj = me.id() / 2;
    for (index_t j = 0; j < blk; ++j)
      for (index_t i = 0; i < blk; ++i) {
        const index_t gi = pi * blk + i, gj = pj * blk + j;
        ab(i, j) = gi < n && gj < n ? a_g(gi, gj) : 0.0;
        bb(i, j) = gi < n && gj < n ? b_g(gi, gj) : 0.0;
      }
    CannonOptions opt;
    opt.m = opt.n = opt.k = n;
    cannon_multiply(me, comm, ab.view(), bb.view(), cb.view(), opt);
    me.barrier();
    for (index_t j = 0; j < blk; ++j)
      for (index_t i = 0; i < blk; ++i) {
        const index_t gi = pi * blk + i, gj = pj * blk + j;
        if (gi < n && gj < n) c_cannon(gi, gj) = cb(i, j);
      }
    me.barrier();
  });
  EXPECT_LE(max_abs_diff(c_srumma.view(), c_cannon.view()),
            testing::gemm_tolerance(n));
}

}  // namespace
}  // namespace srumma
