// Tests for the SRUMMA task decomposition and ordering: K segmentation,
// tiling, plan completeness invariants, and the pure ordering policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "analysis/plan_model.hpp"
#include "core/task_plan.hpp"
#include "rma/rma.hpp"
#include "tests/helpers.hpp"
#include "util/rng.hpp"

namespace srumma {
namespace {

TEST(KSegments, AlignedGridsCutAtOwnerBoundaries) {
  BlockDist1D a(12, 3), b(12, 3);
  const auto ks = k_segment_bounds(a, b, 0);
  EXPECT_EQ(ks, (std::vector<index_t>{0, 4, 8, 12}));
}

TEST(KSegments, MisalignedGridsUnionBoundaries) {
  BlockDist1D a(12, 3);  // cuts at 0,4,8,12
  BlockDist1D b(12, 4);  // cuts at 0,3,6,9,12
  const auto ks = k_segment_bounds(a, b, 0);
  EXPECT_EQ(ks, (std::vector<index_t>{0, 3, 4, 6, 8, 9, 12}));
}

TEST(KSegments, ChunkRefinesLongSegments) {
  BlockDist1D a(10, 1), b(10, 1);
  const auto ks = k_segment_bounds(a, b, 4);
  EXPECT_EQ(ks, (std::vector<index_t>{0, 4, 8, 10}));
}

TEST(KSegments, RemaindersRespected) {
  BlockDist1D a(7, 2);  // 4 + 3 -> cuts 0,4,7
  BlockDist1D b(7, 3);  // 3+2+2 -> cuts 0,3,5,7
  const auto ks = k_segment_bounds(a, b, 0);
  EXPECT_EQ(ks, (std::vector<index_t>{0, 3, 4, 5, 7}));
  // Every segment lies within one part of each axis.
  for (std::size_t s = 0; s + 1 < ks.size(); ++s) {
    EXPECT_EQ(a.owner(ks[s]), a.owner(ks[s + 1] - 1));
    EXPECT_EQ(b.owner(ks[s]), b.owner(ks[s + 1] - 1));
  }
}

TEST(KSegments, MismatchedTotalsThrow) {
  BlockDist1D a(10, 2), b(12, 2);
  EXPECT_THROW(k_segment_bounds(a, b, 0), Error);
}

TEST(KSegments, ZeroKDegeneratesToSingleBound) {
  // k == 0: the multiply is a pure beta scaling of C; downstream consumers
  // expect one bound (zero segments), not the {0, 0} pair a naive
  // implementation emits.
  BlockDist1D a(0, 3), b(0, 2);
  EXPECT_EQ(k_segment_bounds(a, b, 0), std::vector<index_t>{0});
  EXPECT_EQ(k_segment_bounds(a, b, 4), std::vector<index_t>{0});
}

TEST(KSegments, EmptyPartsEmitNoDegenerateCuts) {
  // k < parts: the empty tail parts all start at k; their boundaries must
  // be skipped or the plan would contain zero-length K segments.
  BlockDist1D a(3, 5), b(3, 7);
  EXPECT_EQ(k_segment_bounds(a, b, 0), (std::vector<index_t>{0, 1, 2, 3}));
}

TEST(KSegments, RandomizedInvariants) {
  // Property sweep over axis sizes (including 0 and k < parts), part
  // counts, and chunk values: bounds are strictly increasing from 0 to k,
  // every segment is at most k_chunk long (when chunking), and no segment
  // crosses an owner boundary of either axis.
  Rng rng(20260808);
  for (int trial = 0; trial < 300; ++trial) {
    const index_t k = static_cast<index_t>(rng.below(41));
    BlockDist1D a(k, 1 + static_cast<int>(rng.below(8)));
    BlockDist1D b(k, 1 + static_cast<int>(rng.below(8)));
    const index_t chunk = static_cast<index_t>(rng.below(6));  // 0 = off
    const auto ks = k_segment_bounds(a, b, chunk);
    ASSERT_GE(ks.size(), 1u) << "trial " << trial;
    EXPECT_EQ(ks.front(), 0) << "trial " << trial;
    EXPECT_EQ(ks.back(), k) << "trial " << trial;
    if (k == 0) {
      EXPECT_EQ(ks, std::vector<index_t>{0}) << "trial " << trial;
      continue;
    }
    for (std::size_t s = 0; s + 1 < ks.size(); ++s) {
      ASSERT_LT(ks[s], ks[s + 1]) << "trial " << trial;
      if (chunk > 0) {
        EXPECT_LE(ks[s + 1] - ks[s], chunk) << "trial " << trial;
      }
      EXPECT_EQ(a.owner(ks[s]), a.owner(ks[s + 1] - 1)) << "trial " << trial;
      EXPECT_EQ(b.owner(ks[s]), b.owner(ks[s + 1] - 1)) << "trial " << trial;
    }
  }
}

TEST(TileBounds, ChunkingAndWhole) {
  EXPECT_EQ(tile_bounds(10, 0), (std::vector<index_t>{0, 10}));
  EXPECT_EQ(tile_bounds(10, 4), (std::vector<index_t>{0, 4, 8, 10}));
  EXPECT_EQ(tile_bounds(0, 4), (std::vector<index_t>{0}));
}

struct PlanEnv {
  Team team;
  RmaRuntime rma;
  explicit PlanEnv(MachineModel m) : team(std::move(m)), rma(team) {}
};

// Invariant checks a valid plan must satisfy for any configuration.
void check_plan_invariants(Rank& me, const TaskPlan& plan, const DistMatrix& c,
                           index_t k) {
  // Per C tile, the K segments cover [0, k) exactly once.
  std::map<std::pair<index_t, index_t>, std::vector<std::pair<index_t, index_t>>>
      by_tile;
  for (const Task& t : plan.tasks) {
    EXPECT_GT(t.cm, 0);
    EXPECT_GT(t.cn, 0);
    EXPECT_GT(t.kk, 0);
    EXPECT_LE(t.ci + t.cm, c.block_rows(me.id()));
    EXPECT_LE(t.cj + t.cn, c.block_cols(me.id()));
    by_tile[{t.ci, t.cj}].push_back({t.k0, t.kk});
  }
  for (auto& [tile, segs] : by_tile) {
    std::sort(segs.begin(), segs.end());
    index_t covered = 0;
    for (auto [k0, kk] : segs) {
      EXPECT_EQ(k0, covered) << "gap or overlap in K coverage";
      covered += kk;
    }
    EXPECT_EQ(covered, k);
  }
}

TEST(TaskPlan, CoversKExactlyPerTile) {
  PlanEnv env(MachineModel::testing(2, 2));
  env.team.run([&](Rank& me) {
    DistMatrix a(env.rma, me, 13, 17, ProcGrid{2, 2}, true);
    DistMatrix b(env.rma, me, 17, 9, ProcGrid{2, 2}, true);
    DistMatrix c(env.rma, me, 13, 9, ProcGrid{2, 2}, true);
    SrummaOptions opt;
    TaskPlan plan = build_task_plan(me, a, b, c, opt);
    check_plan_invariants(me, plan, c, 17);
  });
}

TEST(TaskPlan, CoversWithChunkingAndTiling) {
  PlanEnv env(MachineModel::testing(2, 2));
  env.team.run([&](Rank& me) {
    DistMatrix a(env.rma, me, 16, 20, ProcGrid{4, 1}, true);
    DistMatrix b(env.rma, me, 20, 16, ProcGrid{4, 1}, true);
    DistMatrix c(env.rma, me, 16, 16, ProcGrid{4, 1}, true);
    SrummaOptions opt;
    opt.k_chunk = 3;
    opt.c_chunk = 5;
    TaskPlan plan = build_task_plan(me, a, b, c, opt);
    check_plan_invariants(me, plan, c, 20);
    for (const Task& t : plan.tasks) EXPECT_LE(t.kk, 3);
  });
}

TEST(TaskPlan, TransposedPatchRects) {
  PlanEnv env(MachineModel::testing(2, 2));
  env.team.run([&](Rank& me) {
    // C = A^T B: A stored k x m = 20 x 12, B stored 20 x 8.
    DistMatrix a(env.rma, me, 20, 12, ProcGrid{2, 2}, true);
    DistMatrix b(env.rma, me, 20, 8, ProcGrid{2, 2}, true);
    DistMatrix c(env.rma, me, 12, 8, ProcGrid{2, 2}, true);
    SrummaOptions opt;
    opt.ta = blas::Trans::Yes;
    TaskPlan plan = build_task_plan(me, a, b, c, opt);
    check_plan_invariants(me, plan, c, 20);
    for (const Task& t : plan.tasks) {
      // A patch is (kseg) x (C rows) in stored coordinates.
      EXPECT_EQ(t.a_m, t.kk);
      EXPECT_EQ(t.a_n, t.cm);
      EXPECT_EQ(t.b_m, t.kk);
      EXPECT_EQ(t.b_n, t.cn);
    }
  });
}

TEST(TaskPlan, NonConformingDimsThrow) {
  PlanEnv env(MachineModel::testing(2, 1));
  env.team.run([&](Rank& me) {
    DistMatrix a(env.rma, me, 4, 5, ProcGrid{2, 1}, true);
    DistMatrix b(env.rma, me, 6, 4, ProcGrid{2, 1}, true);  // k mismatch
    DistMatrix c(env.rma, me, 4, 4, ProcGrid{2, 1}, true);
    EXPECT_THROW((void)build_task_plan(me, a, b, c, SrummaOptions{}), Error);
  });
}

TEST(TaskPlan, BufferMaximaCoverAllTasks) {
  PlanEnv env(MachineModel::testing(2, 2));
  env.team.run([&](Rank& me) {
    DistMatrix a(env.rma, me, 30, 14, ProcGrid{4, 1}, true);
    DistMatrix b(env.rma, me, 14, 22, ProcGrid{4, 1}, true);
    DistMatrix c(env.rma, me, 30, 22, ProcGrid{4, 1}, true);
    TaskPlan plan = build_task_plan(me, a, b, c, SrummaOptions{});
    for (const Task& t : plan.tasks) {
      EXPECT_LE(t.a_m, plan.max_a_m);
      EXPECT_LE(t.a_n, plan.max_a_n);
      EXPECT_LE(t.b_m, plan.max_b_m);
      EXPECT_LE(t.b_n, plan.max_b_n);
    }
  });
}

TEST(AutoKChunk, DerivedFromKAxisOwnersNotGridEdge) {
  PlanEnv env(MachineModel::testing(2, 2));
  env.team.run([&](Rank& me) {
    // 1 x 4 grid, C = A^T B: the K axis of both stored operands is the row
    // axis, which the 1-row grid leaves in a single part.  The old
    // heuristic divided by the grid edge (4) and produced 4x-too-small
    // chunks — i.e. 4x more first-touch (unoverlapped) gets than the
    // actual owner segmentation warrants.
    const index_t k = 2048;
    DistMatrix a(env.rma, me, k, 64, ProcGrid{1, 4}, true);
    DistMatrix b(env.rma, me, k, 64, ProcGrid{1, 4}, true);
    EXPECT_EQ(auto_k_chunk(a, b, blas::Trans::Yes, blas::Trans::No), 512);
    // Untransposed reading of the same storage: A's K axis is its column
    // axis with 4 owners -> 2048 / (4*4) = 128.  (Shapes no longer conform
    // as a product; auto_k_chunk only consults the K axes.)
    DistMatrix a2(env.rma, me, 64, k, ProcGrid{1, 4}, true);
    DistMatrix b2(env.rma, me, k, 64, ProcGrid{1, 4}, true);
    EXPECT_EQ(auto_k_chunk(a2, b2, blas::Trans::No, blas::Trans::No), 128);
    // Clamp floor/ceiling.
    DistMatrix a3(env.rma, me, 80, 16, ProcGrid{1, 4}, true);
    DistMatrix b3(env.rma, me, 80, 16, ProcGrid{1, 4}, true);
    EXPECT_EQ(auto_k_chunk(a3, b3, blas::Trans::Yes, blas::Trans::No), 64);
  });
}

TEST(TaskPlan, OneByPGridTransposedUsesWholeKSegments) {
  // Regression for the mis-sized pipeline: on a 1xP grid with ta=T the K
  // axis has a single owner, so with the auto chunk the per-tile segment
  // count must be k / chunk, not (grid edge) * k / chunk.
  PlanEnv env(MachineModel::testing(2, 2));
  env.team.run([&](Rank& me) {
    const index_t k = 2048;
    DistMatrix a(env.rma, me, k, 64, ProcGrid{1, 4}, true);
    DistMatrix b(env.rma, me, k, 64, ProcGrid{1, 4}, true);
    DistMatrix c(env.rma, me, 64, 64, ProcGrid{1, 4}, true);
    SrummaOptions opt;
    opt.ta = blas::Trans::Yes;
    opt.k_chunk = auto_k_chunk(a, b, opt.ta, opt.tb);
    TaskPlan plan = build_task_plan(me, a, b, c, opt);
    check_plan_invariants(me, plan, c, k);
    EXPECT_EQ(plan.tasks.size(), static_cast<std::size_t>(k / 512));
    for (const Task& t : plan.tasks) EXPECT_EQ(t.kk, 512);
  });
}

// ---- pure ordering tests -------------------------------------------------

Task mk_task(index_t k0, bool a_dom, bool b_dom, int a_col) {
  Task t;
  t.cm = t.cn = t.kk = 1;
  t.k0 = k0;
  t.a_in_domain = a_dom;
  t.b_in_domain = b_dom;
  t.a_owner_col = a_col;
  return t;
}

TEST(Ordering, NaiveKeepsGenerationOrder) {
  std::vector<Task> ts{mk_task(0, false, false, 0), mk_task(1, true, true, 1),
                       mk_task(2, false, true, 2)};
  order_tasks(ts, OrderingPolicy::naive(), 0);
  EXPECT_EQ(ts[0].k0, 0);
  EXPECT_EQ(ts[1].k0, 1);
  EXPECT_EQ(ts[2].k0, 2);
}

TEST(Ordering, ShmFirstStablePartition) {
  std::vector<Task> ts{mk_task(0, false, false, 0), mk_task(1, true, true, 1),
                       mk_task(2, false, true, 2), mk_task(3, true, true, 3)};
  OrderingPolicy p{true, false, false};
  order_tasks(ts, p, 0);
  EXPECT_EQ(ts[0].k0, 1);  // shm tasks first, in original relative order
  EXPECT_EQ(ts[1].k0, 3);
  EXPECT_EQ(ts[2].k0, 0);  // remote tasks keep relative order
  EXPECT_EQ(ts[3].k0, 2);
}

TEST(Ordering, DiagonalShiftRotatesToDiagonalOwner) {
  std::vector<Task> ts{mk_task(0, false, false, 0), mk_task(1, false, false, 1),
                       mk_task(2, false, false, 2), mk_task(3, false, false, 3)};
  OrderingPolicy p{false, true, false};
  order_tasks(ts, p, 2);
  EXPECT_EQ(ts[0].a_owner_col, 2);  // starts at the diagonal column
  EXPECT_EQ(ts[1].a_owner_col, 3);  // cyclic order preserved
  EXPECT_EQ(ts[2].a_owner_col, 0);
  EXPECT_EQ(ts[3].a_owner_col, 1);
}

TEST(Ordering, DiagonalShiftOnlyTouchesRemoteRun) {
  std::vector<Task> ts{mk_task(0, true, true, 0), mk_task(1, false, false, 1),
                       mk_task(2, false, false, 2)};
  OrderingPolicy p{true, true, false};
  order_tasks(ts, p, 2);
  EXPECT_TRUE(ts[0].in_domain());      // shm task stays in front
  EXPECT_EQ(ts[1].a_owner_col, 2);     // remote run rotated
  EXPECT_EQ(ts[2].a_owner_col, 1);
}

TEST(Ordering, MissingDiagonalColumnLeavesOrder) {
  std::vector<Task> ts{mk_task(0, false, false, 0), mk_task(1, false, false, 1)};
  OrderingPolicy p{false, true, false};
  order_tasks(ts, p, 7);  // no such column
  EXPECT_EQ(ts[0].k0, 0);
  EXPECT_EQ(ts[1].k0, 1);
}

TEST(Ordering, PermutationPreserved) {
  // Whatever the policy, ordering must be a permutation of the input.
  std::vector<Task> ts;
  for (index_t i = 0; i < 20; ++i)
    ts.push_back(mk_task(i, i % 3 == 0, i % 2 == 0, static_cast<int>(i % 4)));
  order_tasks(ts, OrderingPolicy::full(), 1);
  std::set<index_t> seen;
  for (const Task& t : ts) seen.insert(t.k0);
  EXPECT_EQ(seen.size(), 20u);
  // shm-first property holds.
  bool seen_remote = false;
  for (const Task& t : ts) {
    if (!t.in_domain()) seen_remote = true;
    if (t.in_domain()) {
      EXPECT_FALSE(seen_remote) << "shm task after remote";
    }
  }
}

// Count maximal runs of tasks sharing one A patch (the unit the pipeline's
// buffer reuse cares about).
int count_a_runs(const std::vector<Task>& ts) {
  if (ts.empty()) return 0;
  int runs = 1;
  for (std::size_t i = 1; i < ts.size(); ++i)
    if (!ts[i].same_a_patch(ts[i - 1])) ++runs;
  return runs;
}

TEST(Ordering, DiagonalShiftSplitsAtMostOneAReuseRun) {
  // Property: the diagonal rotation is a single cyclic shift of the remote
  // tail, so it can cut at most one maximal A-reuse run in two.  Randomized
  // over run structures, owner columns and rotation targets.
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Task> ts;
    const int groups = 1 + static_cast<int>(rng.below(6));
    index_t idx = 0;
    for (int g = 0; g < groups; ++g) {
      const int len = 1 + static_cast<int>(rng.below(4));
      const int col = static_cast<int>(rng.below(4));
      for (int i = 0; i < len; ++i) {
        Task t = mk_task(idx++, false, false, col);
        t.a_i0 = g;  // distinct patch per group -> `groups` maximal runs
        ts.push_back(t);
      }
    }
    const int before = count_a_runs(ts);
    OrderingPolicy p{false, true, true};
    order_tasks(ts, p, static_cast<int>(rng.below(5)));  // col 4 may miss
    EXPECT_LE(count_a_runs(ts), before + 1) << "trial " << trial;
    EXPECT_EQ(ts.size(), static_cast<std::size_t>(idx));
  }
}

TEST(Ordering, ShmFirstIsStableUnderRandomInput) {
  // Property: shm_first is a *stable* partition — within each class the
  // original generation order (recorded in k0) survives untouched.
  Rng rng(977);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Task> ts;
    const index_t n = 1 + static_cast<index_t>(rng.below(24));
    for (index_t i = 0; i < n; ++i)
      ts.push_back(mk_task(i, rng.below(2) == 0, rng.below(2) == 0,
                           static_cast<int>(rng.below(4))));
    OrderingPolicy p{true, false, false};
    order_tasks(ts, p, 0);
    ASSERT_EQ(ts.size(), static_cast<std::size_t>(n));
    index_t last_shm = -1, last_remote = -1;
    bool seen_remote = false;
    for (const Task& t : ts) {
      if (t.in_domain()) {
        EXPECT_FALSE(seen_remote) << "shm task after remote, trial " << trial;
        EXPECT_GT(t.k0, last_shm) << "shm order perturbed, trial " << trial;
        last_shm = t.k0;
      } else {
        seen_remote = true;
        EXPECT_GT(t.k0, last_remote)
            << "remote order perturbed, trial " << trial;
        last_remote = t.k0;
      }
    }
  }
}

// The a_group regroup as order_tasks first did it: a std::map of first-seen
// indices and a std::stable_sort keyed on them, applied to the run that
// starts after the shm-first prefix.  The oracle for the linear regroup.
void stable_sort_regroup(std::vector<Task>& ts, bool shm_first) {
  const auto remote_begin =
      shm_first ? std::find_if(ts.begin(), ts.end(),
                               [](const Task& t) { return !t.in_domain(); })
                : ts.begin();
  std::map<std::array<index_t, 4>, std::size_t> first_seen;
  for (auto it = remote_begin; it != ts.end(); ++it) {
    first_seen.emplace(std::array{it->a_i0, it->a_j0, it->a_m, it->a_n},
                       first_seen.size());
  }
  std::stable_sort(remote_begin, ts.end(), [&](const Task& x, const Task& y) {
    return first_seen.at({x.a_i0, x.a_j0, x.a_m, x.a_n}) <
           first_seen.at({y.a_i0, y.a_j0, y.a_m, y.a_n});
  });
}

// Every ordering flag combination, a_group included.
std::vector<OrderingPolicy> all_policies() {
  std::vector<OrderingPolicy> out;
  for (int bits = 0; bits < 16; ++bits)
    out.push_back({(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                   (bits & 8) != 0});
  return out;
}

// Task identities in order: a plan has one task per (C tile, K segment).
std::vector<std::array<index_t, 3>> ids(const std::vector<Task>& ts) {
  std::vector<std::array<index_t, 3>> out;
  for (const Task& t : ts) out.push_back({t.ci, t.cj, t.k0});
  return out;
}

TEST(Ordering, AGroupMatchesStableFirstSeenOrder) {
  // Randomized differential: interleaved A patches (all four key fields
  // vary), mixed in-domain flags and random diagonal columns, under every
  // policy.  order_tasks must produce exactly the order of the same policy
  // without a_group followed by the stable_sort regroup.
  Rng rng(20261017);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Task> input;
    const index_t n = static_cast<index_t>(rng.below(41));
    for (index_t i = 0; i < n; ++i) {
      Task t = mk_task(i, rng.below(3) == 0, rng.below(2) == 0,
                       static_cast<int>(rng.below(4)));
      t.a_i0 = static_cast<index_t>(rng.below(3));
      t.a_j0 = static_cast<index_t>(rng.below(2));
      t.a_m = 1 + static_cast<index_t>(rng.below(2));
      t.a_n = 1 + static_cast<index_t>(rng.below(2));
      input.push_back(t);
    }
    const int diag = static_cast<int>(rng.below(5));  // col 4 never matches
    for (const OrderingPolicy& p : all_policies()) {
      std::vector<Task> got = input;
      order_tasks(got, p, diag);
      std::vector<Task> want = input;
      OrderingPolicy no_group = p;
      no_group.a_group = false;
      order_tasks(want, no_group, diag);
      if (p.a_group) stable_sort_regroup(want, p.shm_first);
      ASSERT_EQ(ids(got), ids(want))
          << "trial " << trial << " policy " << p.shm_first
          << p.diagonal_shift << p.a_reuse << p.a_group;
    }
  }
}

TEST(Ordering, AGroupPlansMatchStableFirstSeenOrder) {
  // The same differential over whole analyzer plan models: a transposed
  // rectangular multiply, a c_chunk/k_chunk split, and the 1024-rank
  // N = 16000 scale point.  The split runs without the A-reuse loop nest,
  // so each A patch recurs once per C column tile and the regroup has to
  // move tasks; under the default nest every patch is already contiguous.
  // Every rank's remote run must also be grouped: once a patch's run ends,
  // the patch never recurs.
  std::vector<analysis::AnalysisConfig> cfgs(3);
  cfgs[0].machine = MachineModel::linux_myrinet(4);
  cfgs[0].m = 300;
  cfgs[0].n = 200;
  cfgs[0].k = 500;
  cfgs[0].options.ta = blas::Trans::Yes;
  cfgs[0].options.tb = blas::Trans::Yes;
  cfgs[1].machine = MachineModel::ibm_sp(2);
  cfgs[1].m = cfgs[1].n = cfgs[1].k = 1000;
  cfgs[1].options.c_chunk = 64;
  cfgs[1].options.k_chunk = 37;
  cfgs[1].options.ordering.a_reuse = false;
  cfgs[2].machine = MachineModel::linux_myrinet(512);
  cfgs[2].m = cfgs[2].n = cfgs[2].k = 16000;
  bool regrouped = false;
  for (const analysis::AnalysisConfig& cfg : cfgs) {
    analysis::AnalysisConfig off = cfg;
    off.options.ordering.a_group = false;
    const analysis::PlanModel on_model = analysis::build_plan_model(cfg);
    const analysis::PlanModel off_model = analysis::build_plan_model(off);
    ASSERT_EQ(on_model.ranks.size(), off_model.ranks.size());
    for (std::size_t r = 0; r < on_model.ranks.size(); ++r) {
      const std::vector<Task>& got = on_model.ranks[r].plan.tasks;
      std::vector<Task> want = off_model.ranks[r].plan.tasks;
      regrouped = regrouped || ids(got) != ids(want);
      stable_sort_regroup(want, true);
      ASSERT_EQ(ids(got), ids(want)) << cfg.machine.name << " rank " << r;
      std::set<std::array<index_t, 4>> closed;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const Task& t = got[i];
        if (t.in_domain()) continue;
        ASSERT_EQ(closed.count({t.a_i0, t.a_j0, t.a_m, t.a_n}), 0u)
            << cfg.machine.name << " rank " << r << " task " << i;
        if (i + 1 == got.size() || !got[i + 1].same_a_patch(t))
          closed.insert({t.a_i0, t.a_j0, t.a_m, t.a_n});
      }
    }
  }
  EXPECT_TRUE(regrouped) << "no plan exercised a non-trivial regroup";
}

// FNV-1a over every field of every task of every rank's plan, plus each
// plan's buffer maxima and K total, for a fixed sweep of plan models.
class PlanHash {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const TaskPlan& plan) {
    add(plan.tasks.size());
    for (const Task& t : plan.tasks) {
      for (index_t v : {t.ci, t.cj, t.cm, t.cn, t.k0, t.kk, t.a_i0, t.a_j0,
                        t.a_m, t.a_n, t.b_i0, t.b_j0, t.b_m, t.b_n})
        add(static_cast<std::uint64_t>(v));
      add(t.a_in_domain);
      add(t.b_in_domain);
      for (int v : {t.a_owner, t.b_owner, t.a_owner_col})
        add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }
    for (index_t v : {plan.max_a_m, plan.max_a_n, plan.max_b_m, plan.max_b_n,
                      plan.k_total})
      add(static_cast<std::uint64_t>(v));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

TEST(TaskPlan, PlansAreByteStableAcrossASweep) {
  // Three machines (2-, 16- and 3-way shared-memory domains) x two
  // rectangular shapes x four transposes x c_chunk x k_chunk x all 16
  // ordering-flag combinations, plus the 1024-rank N = 16000 scale point
  // with default options.  Plans must stay byte-identical across planner
  // optimizations: a change that moves any task field, or swaps any two
  // tasks, changes the hash.
  const std::vector<MachineModel> machines = {MachineModel::linux_myrinet(4),
                                              MachineModel::ibm_sp(2),
                                              MachineModel::testing(2, 3)};
  const std::array<std::array<index_t, 3>, 2> shapes = {
      {{300, 200, 500}, {250, 410, 330}}};
  PlanHash hash;
  std::size_t tasks = 0;
  auto add_model = [&](const analysis::AnalysisConfig& cfg) {
    const analysis::PlanModel pm = analysis::build_plan_model(cfg);
    for (const analysis::RankModel& rm : pm.ranks) {
      hash.add(rm.plan);
      tasks += rm.plan.tasks.size();
    }
  };
  for (const MachineModel& mm : machines)
    for (const auto& [m, n, k] : shapes)
      for (int tr = 0; tr < 4; ++tr)
        for (index_t c_chunk : {0, 64})
          for (index_t k_chunk : {0, 37})
            for (const OrderingPolicy& p : all_policies()) {
              analysis::AnalysisConfig cfg;
              cfg.machine = mm;
              cfg.m = m;
              cfg.n = n;
              cfg.k = k;
              cfg.options.ta =
                  (tr & 1) != 0 ? blas::Trans::Yes : blas::Trans::No;
              cfg.options.tb =
                  (tr & 2) != 0 ? blas::Trans::Yes : blas::Trans::No;
              cfg.options.c_chunk = c_chunk;
              cfg.options.k_chunk = k_chunk;
              cfg.options.lookahead = 2;  // pinned, not the auto heuristic
              cfg.options.ordering = p;
              add_model(cfg);
            }
  analysis::AnalysisConfig scale;
  scale.machine = MachineModel::linux_myrinet(512);
  scale.m = scale.n = scale.k = 16000;
  scale.options.lookahead = 2;
  add_model(scale);
  EXPECT_EQ(tasks, 601952u);
  EXPECT_EQ(hash.value(), 0x87ebdd6876a3cf05ull);
}

TEST(Ordering, AReuseGroupsConsecutiveAPatches) {
  PlanEnv env(MachineModel::testing(1, 1));
  env.team.run([&](Rank& me) {
    DistMatrix a(env.rma, me, 8, 8, ProcGrid{1, 1}, true);
    DistMatrix b(env.rma, me, 8, 8, ProcGrid{1, 1}, true);
    DistMatrix c(env.rma, me, 8, 8, ProcGrid{1, 1}, true);
    SrummaOptions opt;
    opt.c_chunk = 4;  // 2x2 tiles
    opt.k_chunk = 4;  // 2 segments
    opt.ordering = OrderingPolicy::full();
    TaskPlan plan = build_task_plan(me, a, b, c, opt);
    ASSERT_EQ(plan.tasks.size(), 8u);
    // Count A-patch switches: with (ci, k, cj) nesting each (ci,k) pair's
    // tasks are adjacent -> 4 groups -> 3 switches (plus possibly 1 from the
    // diagonal rotation split).
    int switches = 0;
    for (std::size_t i = 1; i < plan.tasks.size(); ++i)
      if (!plan.tasks[i].same_a_patch(plan.tasks[i - 1])) ++switches;
    EXPECT_LE(switches, 4);
    // Without reuse nesting, every adjacent pair differs in A.
    SrummaOptions naive = opt;
    naive.ordering = OrderingPolicy::naive();
    TaskPlan nplan = build_task_plan(me, a, b, c, naive);
    int nswitches = 0;
    for (std::size_t i = 1; i < nplan.tasks.size(); ++i)
      if (!nplan.tasks[i].same_a_patch(nplan.tasks[i - 1])) ++nswitches;
    EXPECT_GT(nswitches, switches);
  });
}

}  // namespace
}  // namespace srumma
