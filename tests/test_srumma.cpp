// SRUMMA end-to-end correctness: the distributed multiply must match the
// serial reference across grids, shapes, transposes, ordering policies,
// flavors, chunk sizes, machines, and alpha/beta — plus pipeline/trace
// behaviour checks.

#include <gtest/gtest.h>

#include "core/srumma.hpp"
#include "tests/helpers.hpp"

namespace srumma {
namespace {

using blas::Trans;

struct SrummaCase {
  MachineModel machine;
  ProcGrid grid;
  index_t m, n, k;
  SrummaOptions opt;
  const char* label;
};

// Run one full distributed multiply and compare against the naive kernel.
void run_case(const SrummaCase& sc) {
  Team team(sc.machine);
  RmaRuntime rma(team);
  const bool tra = sc.opt.ta == Trans::Yes;
  const bool trb = sc.opt.tb == Trans::Yes;
  const index_t a_rows = tra ? sc.k : sc.m;
  const index_t a_cols = tra ? sc.m : sc.k;
  const index_t b_rows = trb ? sc.n : sc.k;
  const index_t b_cols = trb ? sc.k : sc.n;

  Matrix a_global = testing::coords_matrix(a_rows, a_cols);
  Matrix b_global(b_rows, b_cols);
  fill_random(b_global.view(), 77);
  Matrix c_init(sc.m, sc.n);
  fill_random(c_init.view(), 88);
  Matrix c_ref = c_init;
  testing::reference_gemm(sc.opt.ta, sc.opt.tb, sc.opt.alpha, a_global,
                          b_global, sc.opt.beta, c_ref);

  Matrix c_out(sc.m, sc.n);
  MultiplyResult result;
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, a_rows, a_cols, sc.grid);
    DistMatrix b(rma, me, b_rows, b_cols, sc.grid);
    DistMatrix c(rma, me, sc.m, sc.n, sc.grid);
    a.scatter_from(me, a_global.view());
    b.scatter_from(me, b_global.view());
    c.scatter_from(me, c_init.view());
    MultiplyResult r = srumma_multiply(me, a, b, c, sc.opt);
    if (me.id() == 0) result = r;
    c.gather_to(me, c_out.view());
  });

  EXPECT_LE(max_abs_diff(c_out.view(), c_ref.view()),
            testing::gemm_tolerance(sc.k))
      << sc.label;
  EXPECT_GT(result.elapsed, 0.0) << sc.label;
  EXPECT_NEAR(result.trace.flops,
              2.0 * static_cast<double>(sc.m) * static_cast<double>(sc.n) *
                  static_cast<double>(sc.k),
              1.0)
      << sc.label;
}

class SrummaSweep : public ::testing::TestWithParam<SrummaCase> {};

TEST_P(SrummaSweep, MatchesReference) { run_case(GetParam()); }

std::vector<SrummaCase> sweep_cases() {
  std::vector<SrummaCase> cases;
  auto base = [](int nodes, int rpn, int p, int q) {
    SrummaCase sc{MachineModel::testing(nodes, rpn), ProcGrid{p, q}, 24, 24,
                  24, SrummaOptions{}, ""};
    return sc;
  };

  {  // single rank
    auto sc = base(1, 1, 1, 1);
    sc.label = "single-rank";
    cases.push_back(sc);
  }
  {  // 2x2 on a 2-node cluster, square
    auto sc = base(2, 2, 2, 2);
    sc.label = "2x2-cluster";
    cases.push_back(sc);
  }
  {  // non-square grid, non-divisible dims
    auto sc = base(3, 2, 3, 2);
    sc.m = 17;
    sc.n = 13;
    sc.k = 23;
    sc.label = "3x2-odd-dims";
    cases.push_back(sc);
  }
  {  // rectangular: wide C, deep K (paper Section 4.2)
    auto sc = base(2, 2, 2, 2);
    sc.m = 8;
    sc.n = 30;
    sc.k = 50;
    sc.label = "rectangular-mnk";
    cases.push_back(sc);
  }
  {  // more ranks than some dimension
    auto sc = base(4, 2, 4, 2);
    sc.m = 6;
    sc.n = 7;
    sc.k = 40;
    sc.label = "tiny-m";
    cases.push_back(sc);
  }
  // All transpose variants (paper Section 4.2) on an odd-shaped problem.
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      auto sc = base(2, 2, 2, 2);
      sc.m = 15;
      sc.n = 11;
      sc.k = 19;
      sc.opt.ta = ta;
      sc.opt.tb = tb;
      sc.label = "transpose-variant";
      cases.push_back(sc);
    }
  }
  // Ordering policies, including ablations.
  for (auto policy :
       {OrderingPolicy::naive(), OrderingPolicy{true, false, false},
        OrderingPolicy{true, true, false}, OrderingPolicy::full()}) {
    auto sc = base(2, 2, 2, 2);
    sc.m = sc.n = sc.k = 20;
    sc.opt.ordering = policy;
    sc.label = "ordering-policy";
    cases.push_back(sc);
  }
  {  // blocking pipeline (Fig. 9 arm)
    auto sc = base(2, 2, 2, 2);
    sc.opt.nonblocking = false;
    sc.label = "blocking";
    cases.push_back(sc);
  }
  {  // copy flavor on a single-domain machine (Cray X1 style)
    auto sc = base(1, 1, 2, 2);
    sc.machine = MachineModel::cray_x1(1);  // 4 MSPs, one domain
    sc.opt.shm_flavor = ShmFlavor::Copy;
    sc.label = "x1-copy-flavor";
    cases.push_back(sc);
  }
  {  // direct flavor on a single-domain machine (Altix style)
    auto sc = base(1, 1, 2, 2);
    sc.machine = MachineModel::sgi_altix(4);
    sc.opt.shm_flavor = ShmFlavor::Direct;
    sc.label = "altix-direct-flavor";
    cases.push_back(sc);
  }
  // K-chunking and C-tiling.
  for (index_t kc : {3, 7}) {
    auto sc = base(2, 2, 2, 2);
    sc.m = sc.n = sc.k = 22;
    sc.opt.k_chunk = kc;
    sc.label = "k-chunked";
    cases.push_back(sc);
  }
  {
    auto sc = base(2, 2, 2, 2);
    sc.m = sc.n = sc.k = 24;
    sc.opt.c_chunk = 5;
    sc.opt.k_chunk = 6;
    sc.label = "c-tiled";
    cases.push_back(sc);
  }
  // alpha/beta combinations.
  for (double alpha : {2.0, -0.5}) {
    for (double beta : {0.0, 1.0, -1.0}) {
      auto sc = base(2, 2, 2, 2);
      sc.m = sc.n = sc.k = 16;
      sc.opt.alpha = alpha;
      sc.opt.beta = beta;
      sc.label = "alpha-beta";
      cases.push_back(sc);
    }
  }
  // Deeper prefetch pipelines (extension beyond the paper's double buffer).
  for (int lookahead : {2, 4, 7}) {
    auto sc = base(2, 2, 2, 2);
    sc.m = sc.n = sc.k = 26;
    sc.opt.lookahead = lookahead;
    sc.opt.k_chunk = 4;
    sc.label = "lookahead";
    cases.push_back(sc);
  }
  {  // the A-run-splitting pattern: C tiling + mixed shm/remote owners +
     // shm-first partition + A-reuse.  Regression guard for the pipeline's
     // buffer eviction (a naive rotation clobbers a still-referenced A
     // buffer on exactly this shape).
    auto sc = base(2, 2, 2, 2);
    sc.m = 16;
    sc.n = 24;
    sc.k = 16;
    sc.opt.c_chunk = 4;   // several cj tiles per (ci, k) group
    sc.opt.k_chunk = 4;
    sc.opt.ordering = OrderingPolicy::full();
    sc.label = "a-run-split-regression";
    cases.push_back(sc);
  }
  {  // transpose + rectangular + chunking, the works
    auto sc = base(3, 2, 2, 3);
    sc.m = 21;
    sc.n = 10;
    sc.k = 33;
    sc.opt.ta = Trans::Yes;
    sc.opt.tb = Trans::Yes;
    sc.opt.k_chunk = 5;
    sc.opt.c_chunk = 6;
    sc.label = "everything-at-once";
    cases.push_back(sc);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SrummaSweep, ::testing::ValuesIn(sweep_cases()));

TEST(Srumma, BufferFootprintAccounting) {
  // The paper's memory-efficiency claim, as invariants: direct access needs
  // zero buffers; chunking caps the footprint; the cap is respected in
  // phantom mode too (same accounting path).
  {
    Team team(MachineModel::sgi_altix(4));
    RmaRuntime rma(team);
    team.run([&](Rank& me) {
      DistMatrix a(rma, me, 512, 512, ProcGrid{2, 2}, true);
      DistMatrix b(rma, me, 512, 512, ProcGrid{2, 2}, true);
      DistMatrix c(rma, me, 512, 512, ProcGrid{2, 2}, true);
      MultiplyResult r = srumma_multiply(me, a, b, c, SrummaOptions{});
      EXPECT_EQ(r.trace.buffer_bytes_peak, 0u);  // all tasks direct
    });
  }
  {
    Team team(MachineModel::testing(2, 2));
    RmaRuntime rma(team);
    std::uint64_t open_bytes = 0, capped_bytes = 0;
    team.run([&](Rank& me) {
      DistMatrix a(rma, me, 512, 512, ProcGrid{2, 2}, true);
      DistMatrix b(rma, me, 512, 512, ProcGrid{2, 2}, true);
      DistMatrix c(rma, me, 512, 512, ProcGrid{2, 2}, true);
      // Capped first: buffer_bytes_peak is a per-team high-water mark, so
      // the small run must be measured before the open one raises the bar.
      SrummaOptions capped;
      capped.c_chunk = 32;
      capped.k_chunk = 32;
      MultiplyResult r1 = srumma_multiply(me, a, b, c, capped);
      MultiplyResult r2 = srumma_multiply(me, a, b, c, SrummaOptions{});
      if (me.id() == 0) {
        capped_bytes = r1.trace.buffer_bytes_peak;
        open_bytes = r2.trace.buffer_bytes_peak;
      }
    });
    EXPECT_GT(open_bytes, 0u);
    EXPECT_LT(capped_bytes, open_bytes);
    // Capped: at most (lookahead+2) A + (lookahead+1) B patches of 32x32.
    EXPECT_LE(capped_bytes, 5u * 32 * 32 * sizeof(double));
  }
}

TEST(Srumma, PeakSurvivesLaterSmallerMultiply) {
  // Regression: buffer_bytes_peak is a high-water mark, so a second,
  // smaller multiply on the same team must not erase the first one's
  // peak.  (The bug was a plain assignment instead of a max-accumulate in
  // the pipeline epilogue: the tightly tiled second run overwrote the open
  // run's footprint and benches under-reported memory use.)
  Team team(MachineModel::testing(2, 2));
  RmaRuntime rma(team);
  std::uint64_t open_peak = 0, later_peak = 0;
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, 256, 256, ProcGrid{2, 2}, true);
    DistMatrix b(rma, me, 256, 256, ProcGrid{2, 2}, true);
    DistMatrix c(rma, me, 256, 256, ProcGrid{2, 2}, true);
    MultiplyResult open_run = srumma_multiply(me, a, b, c, SrummaOptions{});
    SrummaOptions capped;
    capped.c_chunk = 16;
    capped.k_chunk = 16;
    MultiplyResult capped_run = srumma_multiply(me, a, b, c, capped);
    if (me.id() == 0) {
      open_peak = open_run.trace.buffer_bytes_peak;
      later_peak = capped_run.trace.buffer_bytes_peak;
    }
  });
  EXPECT_GT(open_peak, 0u);
  EXPECT_GE(later_peak, open_peak);
}

TEST(Srumma, MemoryBudgetRespectedAndCorrect) {
  // max_buffer_bytes shrinks the tiling until the pipeline fits, without
  // changing the numerical result.
  Team team(MachineModel::testing(2, 2));
  RmaRuntime rma(team);
  Matrix a_g = testing::coords_matrix(64, 64);
  Matrix b_g(64, 64);
  fill_random(b_g.view(), 8);
  Matrix c_ref(64, 64);
  testing::reference_gemm(Trans::No, Trans::No, 1.0, a_g, b_g, 0.0, c_ref);
  Matrix c_out(64, 64);
  std::uint64_t peak = 0;
  const std::uint64_t budget = 16 * 1024;  // 16 KB per rank
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, 64, 64, ProcGrid{2, 2});
    DistMatrix b(rma, me, 64, 64, ProcGrid{2, 2});
    DistMatrix c(rma, me, 64, 64, ProcGrid{2, 2});
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    SrummaOptions opt;
    opt.max_buffer_bytes = budget;
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) peak = r.trace.buffer_bytes_peak;
    c.gather_to(me, c_out.view());
  });
  EXPECT_LE(max_abs_diff(c_out.view(), c_ref.view()),
            testing::gemm_tolerance(64));
  EXPECT_LE(peak, budget);
  EXPECT_GT(peak, 0u);
}

TEST(Srumma, MixedGridsPerMatrix) {
  // SRUMMA only needs one-sided access to A and B: the three matrices may
  // live on entirely different process grids (a property message-passing
  // algorithms like SUMMA/Cannon cannot offer — they need aligned panels).
  Team team(MachineModel::testing(2, 2));
  RmaRuntime rma(team);
  Matrix a_g = testing::coords_matrix(18, 20);
  Matrix b_g(20, 14);
  fill_random(b_g.view(), 55);
  Matrix c_ref(18, 14);
  testing::reference_gemm(Trans::No, Trans::No, 1.0, a_g, b_g, 0.0, c_ref);
  Matrix c_out(18, 14);
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, 18, 20, ProcGrid{4, 1});  // row strips
    DistMatrix b(rma, me, 20, 14, ProcGrid{1, 4});  // column strips
    DistMatrix c(rma, me, 18, 14, ProcGrid{2, 2});  // square grid
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    srumma_multiply(me, a, b, c, SrummaOptions{});
    c.gather_to(me, c_out.view());
  });
  EXPECT_LE(max_abs_diff(c_out.view(), c_ref.view()),
            testing::gemm_tolerance(20));
}

TEST(Srumma, RepeatedCallsAccumulateCorrectly) {
  // C = A*B then C += A*B gives 2*A*B.
  Team team(MachineModel::testing(2, 2));
  RmaRuntime rma(team);
  Matrix a_g = testing::coords_matrix(12, 12);
  Matrix b_g(12, 12);
  fill_random(b_g.view(), 5);
  Matrix ref(12, 12);
  testing::reference_gemm(Trans::No, Trans::No, 2.0, a_g, b_g, 0.0, ref);
  Matrix out(12, 12);
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, 12, 12, ProcGrid{2, 2});
    DistMatrix b(rma, me, 12, 12, ProcGrid{2, 2});
    DistMatrix c(rma, me, 12, 12, ProcGrid{2, 2});
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    SrummaOptions opt;
    opt.beta = 0.0;
    srumma_multiply(me, a, b, c, opt);
    opt.beta = 1.0;
    srumma_multiply(me, a, b, c, opt);
    c.gather_to(me, out.view());
  });
  EXPECT_LE(max_abs_diff(out.view(), ref.view()), testing::gemm_tolerance(24));
}

TEST(Srumma, DirectFlavorUsesNoCopiesOnSingleDomain) {
  Team team(MachineModel::sgi_altix(4));
  RmaRuntime rma(team);
  Matrix a_g = testing::coords_matrix(16, 16);
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, 16, 16, ProcGrid{2, 2});
    DistMatrix b(rma, me, 16, 16, ProcGrid{2, 2});
    DistMatrix c(rma, me, 16, 16, ProcGrid{2, 2});
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, a_g.view());
    MultiplyResult r = srumma_multiply(me, a, b, c, SrummaOptions{});
    // Every task direct, zero communication bytes.
    EXPECT_EQ(r.trace.copy_tasks, 0u);
    EXPECT_GT(r.trace.direct_tasks, 0u);
    EXPECT_EQ(r.trace.bytes_shm + r.trace.bytes_remote, 0u);
  });
}

TEST(Srumma, CopyFlavorMovesBytes) {
  Team team(MachineModel::cray_x1(1));
  RmaRuntime rma(team);
  Matrix a_g = testing::coords_matrix(16, 16);
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, 16, 16, ProcGrid{2, 2});
    DistMatrix b(rma, me, 16, 16, ProcGrid{2, 2});
    DistMatrix c(rma, me, 16, 16, ProcGrid{2, 2});
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, a_g.view());
    SrummaOptions opt;
    opt.shm_flavor = ShmFlavor::Copy;
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    EXPECT_EQ(r.trace.direct_tasks, 0u);
    EXPECT_GT(r.trace.bytes_shm, 0u);
  });
}

TEST(Srumma, ClusterRunSplitsShmAndRemoteTraffic) {
  Team team(MachineModel::testing(2, 2));
  RmaRuntime rma(team);
  Matrix a_g = testing::coords_matrix(16, 16);
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, 16, 16, ProcGrid{2, 2});
    DistMatrix b(rma, me, 16, 16, ProcGrid{2, 2});
    DistMatrix c(rma, me, 16, 16, ProcGrid{2, 2});
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, a_g.view());
    MultiplyResult r = srumma_multiply(me, a, b, c, SrummaOptions{});
    // On a 2-node machine both kinds of traffic appear (direct flavor can
    // view the same-domain blocks, but cross-node panels must be fetched).
    EXPECT_GT(r.trace.bytes_remote, 0u);
    EXPECT_GE(r.overlap, 0.0);
    EXPECT_LE(r.overlap, 1.0);
  });
}

TEST(Srumma, PhantomRunMatchesRealRunTiming) {
  // The virtual-time outcome must not depend on whether data exists:
  // phantom mode exists precisely so huge benches can trust it.
  const MachineModel machine = MachineModel::testing(2, 2);
  auto run_once = [&](bool phantom) {
    Team team(machine);
    RmaRuntime rma(team);
    double elapsed = 0.0;
    Matrix a_g = testing::coords_matrix(24, 24);
    team.run([&](Rank& me) {
      DistMatrix a(rma, me, 24, 24, ProcGrid{2, 2}, phantom);
      DistMatrix b(rma, me, 24, 24, ProcGrid{2, 2}, phantom);
      DistMatrix c(rma, me, 24, 24, ProcGrid{2, 2}, phantom);
      if (!phantom) {
        a.scatter_from(me, a_g.view());
        b.scatter_from(me, a_g.view());
      }
      // Pin the static pipeline: the timing-equality assertion is stated
      // for the paper's executor.
      SrummaOptions opt;
      opt.engine = EngineMode::Off;
      MultiplyResult r = srumma_multiply(me, a, b, c, opt);
      if (me.id() == 0) elapsed = r.elapsed;
    });
    return elapsed;
  };
  const double real = run_once(false);
  const double phantom = run_once(true);
  EXPECT_NEAR(real, phantom, real * 1e-9);
}

TEST(Srumma, MismatchedPhantomFlagsThrow) {
  Team team(MachineModel::testing(2, 1));
  RmaRuntime rma(team);
  EXPECT_THROW(team.run([&](Rank& me) {
    DistMatrix a(rma, me, 8, 8, ProcGrid{2, 1}, true);
    DistMatrix b(rma, me, 8, 8, ProcGrid{2, 1}, false);
    DistMatrix c(rma, me, 8, 8, ProcGrid{2, 1}, false);
    srumma_multiply(me, a, b, c, SrummaOptions{});
  }),
               Error);
}

TEST(Srumma, NonblockingBeatsBlockingOnClusters) {
  // The pipeline must hide remote latency: nonblocking virtual time strictly
  // below blocking virtual time on a multi-node machine (Fig. 9's claim).
  Team team(MachineModel::testing(4, 2));
  RmaRuntime rma(team);
  double t_nb = 0.0, t_bl = 0.0;
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, 256, 256, ProcGrid{4, 2}, true);
    DistMatrix b(rma, me, 256, 256, ProcGrid{4, 2}, true);
    DistMatrix c(rma, me, 256, 256, ProcGrid{4, 2}, true);
    SrummaOptions opt;
    // Timing comparison of the paper's pipeline: pin it (the engine's
    // out-of-order schedule answers a different question).
    opt.engine = EngineMode::Off;
    opt.nonblocking = true;
    MultiplyResult r1 = srumma_multiply(me, a, b, c, opt);
    opt.nonblocking = false;
    MultiplyResult r2 = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) {
      t_nb = r1.elapsed;
      t_bl = r2.elapsed;
    }
  });
  EXPECT_LT(t_nb, t_bl);
}

}  // namespace
}  // namespace srumma
