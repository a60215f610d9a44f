// SRUMMA end-to-end correctness: the distributed multiply must match the
// serial reference across grids, shapes, transposes, ordering policies,
// flavors, chunk sizes, machines, and alpha/beta — plus pipeline/trace
// behaviour checks.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

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
    // Timing comparison of the paper's double buffer: pin the window
    // lifetime (the plan lifetime answers a different question).
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

// ---------------------------------------------------------------------------
// The plan memo (PlanMemo, core/srumma.hpp): a multiply into a C that holds
// this rank's plan for equal inputs skips tune_options and build_task_plan.
// Reusing the plan must change nothing that is modeled, and a multiply that
// differs in any keyed input must plan afresh.  Every run is pooled on one
// harness worker, so modeled numbers are reproducible and comparable.

constexpr index_t kMemoN = 24;

struct MemoCase {
  const char* label;
  SrummaOptions first;
  SrummaOptions second;
  ProcGrid a2_grid{2, 2};  ///< grid of the second multiply's A
  ProcGrid b2_grid{2, 2};  ///< grid of the second multiply's B
  index_t k2 = kMemoN;     ///< inner dimension of the second multiply
};

struct MemoRun {
  Matrix c{kMemoN, kMemoN};
  Matrix ref{kMemoN, kMemoN};
  TraceCounters trace;
  double max_clock = 0.0;
  int ranks_reused = 0;  ///< ranks whose second multiply kept their memo
};

// C = A*B, then C2 = op(A2)*op(B2) into C again (`same_c`) or into a fresh
// D.  Both variants allocate the same matrices in the same order, so they
// differ only in which matrix receives the second product.  A2 and B2 are
// A and B themselves unless the case changes a layout.
MemoRun memo_run(const MemoCase& mc, EngineMode mode, bool cache,
                 bool same_c) {
  const ProcGrid grid{2, 2};
  const index_t n = kMemoN;
  Team team(MachineModel::testing(2, 2));
  team.set_execution(ExecMode::Pooled, 1);
  RmaConfig cfg;
  cfg.cache = cache;
  RmaRuntime rma(team, cfg);
  SrummaOptions first = mc.first;
  SrummaOptions second = mc.second;
  first.engine = mode;
  second.engine = mode;

  const bool new_operands =
      mc.a2_grid != grid || mc.b2_grid != grid || mc.k2 != n;
  const bool tra = second.ta == Trans::Yes;
  const bool trb = second.tb == Trans::Yes;
  Matrix a_g(n, n), b_g(n, n);
  fill_random(a_g.view(), 1);
  fill_random(b_g.view(), 2);
  Matrix a2_g = a_g;
  Matrix b2_g = b_g;
  if (new_operands) {
    a2_g = Matrix(tra ? mc.k2 : n, tra ? n : mc.k2);
    b2_g = Matrix(trb ? n : mc.k2, trb ? mc.k2 : n);
    fill_random(a2_g.view(), 3);
    fill_random(b2_g.view(), 4);
  }

  MemoRun out;
  out.ref.view().fill(0.0);
  testing::reference_gemm(second.ta, second.tb, second.alpha, a2_g, b2_g,
                          0.0, out.ref);
  std::vector<int> reused(static_cast<std::size_t>(team.size()), 0);
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, grid);
    DistMatrix b(rma, me, n, n, grid);
    DistMatrix c(rma, me, n, n, grid);
    DistMatrix d(rma, me, n, n, grid);
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    std::optional<DistMatrix> a2, b2;
    if (new_operands) {
      a2.emplace(rma, me, a2_g.rows(), a2_g.cols(), mc.a2_grid);
      b2.emplace(rma, me, b2_g.rows(), b2_g.cols(), mc.b2_grid);
      a2->scatter_from(me, a2_g.view());
      b2->scatter_from(me, b2_g.view());
    }
    (void)srumma_multiply(me, a, b, c, first);
    // Holding the first memo keeps its address from being reused, so an
    // equal pointer below means the very same memo.
    const std::shared_ptr<const PlanMemo> kept = c.plan_memo();
    EXPECT_NE(kept, nullptr);
    DistMatrix& target = same_c ? c : d;
    (void)srumma_multiply(me, a2 ? *a2 : a, b2 ? *b2 : b, target, second);
    reused[static_cast<std::size_t>(me.id())] = target.plan_memo() == kept;
    target.gather_to(me, out.c.view());
  });
  out.trace = team.total_trace();
  out.max_clock = team.max_clock();
  for (int r : reused) out.ranks_reused += r;
  return out;
}

void expect_same_run(const MemoRun& got, const MemoRun& fresh,
                     const std::string& label, index_t tolerance_k = kMemoN) {
  EXPECT_EQ(max_abs_diff(got.c.view(), fresh.c.view()), 0.0) << label;
  EXPECT_EQ(got.max_clock, fresh.max_clock) << label;
#define SRUMMA_EXPECT_SAME(type, name, agg) \
  EXPECT_EQ(got.trace.name, fresh.trace.name) << label << ": " #name;
  SRUMMA_TRACE_COUNTERS(SRUMMA_EXPECT_SAME)
#undef SRUMMA_EXPECT_SAME
  EXPECT_LE(max_abs_diff(got.c.view(), got.ref.view()),
            testing::gemm_tolerance(tolerance_k))
      << label;
}

std::string memo_label(const char* what, EngineMode mode, bool cache) {
  return std::string(what) +
         (mode == EngineMode::On ? " / engine" : " / pipeline") +
         (cache ? " / cache" : "");
}

TEST(SrummaPlanMemo, RepeatedMultiplyReusesThePlanAndChangesNothing) {
  const MemoCase mc{"repeat", {}, {}};
  for (EngineMode mode : {EngineMode::Off, EngineMode::On}) {
    for (bool cache : {false, true}) {
      const std::string label = memo_label(mc.label, mode, cache);
      const MemoRun same = memo_run(mc, mode, cache, /*same_c=*/true);
      const MemoRun fresh = memo_run(mc, mode, cache, /*same_c=*/false);
      EXPECT_EQ(same.ranks_reused, 4) << label;
      expect_same_run(same, fresh, label);
    }
  }
}

TEST(SrummaPlanMemo, ChangedKeyRebuildsThePlan) {
  std::vector<MemoCase> cases;
  auto add = [&](const char* label, auto&& edit) {
    MemoCase mc{label, {}, {}};
    mc.first.c_chunk = 6;
    mc.second = mc.first;
    edit(mc);
    cases.push_back(mc);
  };
  add("c_chunk", [](MemoCase& mc) { mc.second.c_chunk = 12; });
  add("k_chunk", [](MemoCase& mc) { mc.second.k_chunk = 4; });
  add("ta", [](MemoCase& mc) { mc.second.ta = Trans::Yes; });
  add("a_reuse", [](MemoCase& mc) { mc.second.ordering.a_reuse = false; });
  add("A grid", [](MemoCase& mc) { mc.a2_grid = ProcGrid{1, 4}; });
  add("B grid", [](MemoCase& mc) { mc.b2_grid = ProcGrid{4, 1}; });
  add("A and B shape", [](MemoCase& mc) { mc.k2 = 40; });
  for (const MemoCase& mc : cases) {
    for (EngineMode mode : {EngineMode::Off, EngineMode::On}) {
      const std::string label = memo_label(mc.label, mode, false);
      const MemoRun same = memo_run(mc, mode, false, /*same_c=*/true);
      const MemoRun fresh = memo_run(mc, mode, false, /*same_c=*/false);
      EXPECT_EQ(same.ranks_reused, 0) << label;
      expect_same_run(same, fresh, label);
    }
  }
}

TEST(SrummaPlanMemo, ScfChainKeepsOnePlanPerResult) {
  // examples/scf_like: tmp = H*C, then F = 0.5*C^T*tmp + 0.5*F, twice.  tmp
  // is C of one multiply and B of the next, which must leave its memo
  // alone.  The reference run drops both memos before every multiply, which
  // makes each one plan as a fresh C would.
  const index_t n = kMemoN;
  const ProcGrid grid{2, 2};
  Matrix h_g(n, n), c_g(n, n);
  fill_random(h_g.view(), 11);
  fill_random(c_g.view(), 12);
  SrummaOptions first;
  SrummaOptions second;
  second.ta = Trans::Yes;
  second.alpha = 0.5;
  second.beta = 0.5;
  Matrix tmp_ref(n, n);
  MemoRun expected;
  expected.ref.view().fill(0.0);
  for (int it = 0; it < 2; ++it) {
    testing::reference_gemm(first.ta, first.tb, 1.0, h_g, c_g, 0.0, tmp_ref);
    testing::reference_gemm(second.ta, second.tb, 0.5, c_g, tmp_ref, 0.5,
                            expected.ref);
  }

  // Returns F as `c`.
  const auto run = [&](EngineMode mode, bool keep_memo) {
    Team team(MachineModel::testing(2, 2));
    team.set_execution(ExecMode::Pooled, 1);
    RmaRuntime rma(team);
    SrummaOptions o1 = first;
    SrummaOptions o2 = second;
    o1.engine = mode;
    o2.engine = mode;
    MemoRun out = expected;
    std::vector<int> reused(static_cast<std::size_t>(team.size()), 0);
    team.run([&](Rank& me) {
      DistMatrix hd(rma, me, n, n, grid);
      DistMatrix cd(rma, me, n, n, grid);
      DistMatrix tmp(rma, me, n, n, grid);
      DistMatrix fd(rma, me, n, n, grid);
      hd.scatter_from(me, h_g.view());
      cd.scatter_from(me, c_g.view());
      MatrixView mine = fd.local_view(me);
      mine.fill(0.0);
      // tmp's memo after each multiply that reads tmp as B, and F's memo
      // after each multiply into F, must be the ones their first multiply
      // as C built.
      std::shared_ptr<const PlanMemo> tmp_memo, f_memo;
      bool same = true;
      for (int it = 0; it < 2; ++it) {
        if (!keep_memo) tmp.plan_memo().reset();
        (void)srumma_multiply(me, hd, cd, tmp, o1);
        if (it == 0) tmp_memo = tmp.plan_memo();
        EXPECT_NE(tmp.plan_memo(), nullptr);
        if (!keep_memo) fd.plan_memo().reset();
        (void)srumma_multiply(me, cd, tmp, fd, o2);
        if (it == 0) f_memo = fd.plan_memo();
        EXPECT_NE(fd.plan_memo(), nullptr);
        same = same && tmp.plan_memo() == tmp_memo &&
               fd.plan_memo() == f_memo;
      }
      reused[static_cast<std::size_t>(me.id())] = same;
      fd.gather_to(me, out.c.view());
    });
    out.trace = team.total_trace();
    out.max_clock = team.max_clock();
    for (int r : reused) out.ranks_reused += r;
    return out;
  };

  for (EngineMode mode : {EngineMode::Off, EngineMode::On}) {
    const std::string label = memo_label("scf chain", mode, false);
    const MemoRun kept = run(mode, true);
    const MemoRun dropped = run(mode, false);
    EXPECT_EQ(kept.ranks_reused, 4) << label;
    EXPECT_EQ(dropped.ranks_reused, 0) << label;
    expect_same_run(kept, dropped, label, 2 * n);
  }
}

}  // namespace
}  // namespace srumma
