#include "engine/recovery.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/task_plan.hpp"
#include "engine/operand.hpp"
#include "fault/fault_plane.hpp"
#include "runtime/team.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace srumma::engine {

void replicate_operands(Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c,
                        bool mirror_c) {
  // Split-phase mirror of all three matrices: all replica segments are
  // allocated first (allocation is a collective with a barrier, which no
  // in-flight get may cross), then the three block gets overlap on the
  // wire and one publication barrier covers them all.  With beta == 0
  // the C mirror carries no information (the post-beta snapshot is all
  // zeros and adoption recomputes every element), so only the replica
  // segment is allocated.
  a.replicate_alloc(me);
  b.replicate_alloc(me);
  c.replicate_alloc(me);
  const std::array<DistMatrix*, 3> mats{&a, &b, &c};
  const std::array<bool, 3> mirror{true, true, mirror_c};
  std::array<RmaHandle, 3> gets;
  for (std::size_t m = 0; m < 3; ++m)
    gets[m] = mats[m]->replicate_nb(me, mirror[m]);
  // No kill is armed yet, so a mirror get that exhausts its RMA retries
  // failed transiently: re-issue it in place, one re-arm round each
  // (TaskRearm arg = 0, 1, 2 for A, B, C).
  ReissueBudget budget{
      16, "srumma: buddy replication get keeps failing after RMA retries"};
  for (std::size_t m = 0; m < 3; ++m) {
    while (!mats[m]->replicate_finish(me, gets[m])) {
      budget.charge(me, m);
      gets[m] = mats[m]->replicate_nb(me, mirror[m]);
    }
  }
  me.barrier();
}

namespace {

// A dead rank's tuned options and task plan, rebuilt from the layouts
// exactly as the rank built them itself.
struct DeadPlan {
  int rank = -1;
  SrummaOptions tuned;
  TaskPlan plan;
};

// One adoptable unit of lost work: a dead rank's C tile (global origin)
// with its in-plan-order commit chain (indices into the dead rank's plan).
struct LostChain {
  const DeadPlan* dead = nullptr;
  index_t gi = 0, gj = 0;
  std::vector<std::size_t> task_idxs;
};

// Adopt the chains [lo, hi) from the buddy replicas.  The share runs as
// ONE task plan through run_plan: each chain's tasks in plan order, its
// tile moved to its own row band of one stacked scratch matrix.  Each band
// starts from the replica's post-beta snapshot, so every reconstructed
// tile is bitwise the fault-free result: the exact operand values and op
// sequence the dead owner would have run.  Operand dedup, fetch re-arm and
// the issue window are run_plan's, so the replay pays max(comm, compute)
// across chain boundaries like the executors do.  The final stores
// redirect into the buddy's replica (the dead ranks' own segments are
// unreachable), which is where gather_to contributes dead-domain blocks
// from.
void adopt(Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c,
           const std::vector<LostChain>& chains, std::size_t lo,
           std::size_t hi, OperandPool& pool) {
  if (lo >= hi) return;
  trace::SpanGuard adopt_span(me.tracer(), me.id(), trace::Phase::Adopt,
                              me.clock(), hi - lo);
  const bool phantom = c.phantom();
  struct Tile {
    index_t gi, gj, band, cm, cn;
    std::size_t first, last;  // the chain's span of the adopted plan
    PatchHandle seed, store;
  };
  std::vector<Tile> tiles;
  TaskPlan share;
  index_t rows = 0;
  index_t cols = 0;
  for (std::size_t ci = lo; ci < hi; ++ci) {
    const LostChain& ch = chains[ci];
    const Task& t0 = ch.dead->plan.tasks[ch.task_idxs.front()];
    const std::size_t first = share.tasks.size();
    tiles.push_back(Tile{ch.gi, ch.gj, rows, t0.cm, t0.cn, first,
                         first + ch.task_idxs.size() - 1, {}, {}});
    for (const std::size_t k : ch.task_idxs) {
      Task t = ch.dead->plan.tasks[k];
      t.ci = rows;
      t.cj = 0;
      share.tasks.push_back(t);
    }
    rows += t0.cm;
    cols = std::max(cols, t0.cn);
  }
  Matrix scratch;
  MatrixView dst;
  if (!phantom) {
    scratch = Matrix(rows, cols);
    dst = scratch.view();
  }
  const auto band = [&](const Tile& tl) {
    return phantom ? MatrixView{} : dst.block(tl.band, 0, tl.cm, tl.cn);
  };

  // With beta == 0 the post-beta snapshot is identically zero —
  // srumma_multiply skipped the C mirror bytes entirely — and so is the
  // fresh scratch, so no seed goes on the wire.  Otherwise every seed is
  // issued at once and all land before the run.
  const SrummaOptions& opt = chains[lo].dead->tuned;
  if (opt.beta != 0.0) {
    for (Tile& tl : tiles)
      tl.seed = c.fetch_nb(me, tl.gi, tl.gj, tl.cm, tl.cn, band(tl));
    for (Tile& tl : tiles) {
      ReissueBudget budget{
          16, "recovery: replica seed fetch keeps failing after retries"};
      while (!c.try_wait(me, tl.seed)) {
        budget.charge(me, tl.first);
        tl.seed = c.fetch_nb(me, tl.gi, tl.gj, tl.cm, tl.cn, band(tl));
      }
    }
  }
  // An issue window of max(4, L + 2) tasks, L being the tuned lookahead of
  // the first chain's owner.  The scratch is adopter-local, so the tile
  // writes are not declared against put epochs (c_decl = nullptr); the
  // stores below are.
  me.trace().tasks_adopted +=
      run_plan(me, a, b, dst, nullptr, opt, std::max(3, opt.lookahead + 1),
               share, pool);
  for (Tile& tl : tiles)
    tl.store = c.store_nb(me, tl.gi, tl.gj, tl.cm, tl.cn, band(tl));
  for (Tile& tl : tiles) {
    ReissueBudget budget{
        16, "recovery: reconstructed-tile store keeps failing after retries"};
    while (!c.try_wait(me, tl.store)) {
      budget.charge(me, tl.last);
      tl.store = c.store_nb(me, tl.gi, tl.gj, tl.cm, tl.cn, band(tl));
    }
  }
  // Parked with the operand buffers, so the scratch outlives the closing
  // barriers too.
  pool.spare.push_back(std::move(scratch));
}

}  // namespace

void recover(Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c,
             const SrummaOptions& opt, OperandPool& pool) {
  fault::FaultPlane* fp = me.team().faults();
  SRUMMA_REQUIRE(fp != nullptr && fp->kill_enabled(),
                 "recovery: needs a fault plane with a kill configured");
  // Pre-barrier: every survivor's plan is committed, every zombie has
  // drained.  This is also where a Barrier kill point trips.
  me.barrier();
  const int kd = fp->kill_domain();
  if (!fp->domain_killed(kd)) {
    // The configured kill point was never reached (e.g. its
    // kill_after_vtime lies past the multiply's end): fault-free run.  The
    // barrier above keeps the collective sequence symmetric.
    return;
  }
  // Uniform barrier-level failure detection: every rank independently
  // observes the tripped kill and declares the domain dead, whether or not
  // any of its own transfers drained with DomainDead.
  fp->declare_dead(kd);
  if (trace::Tracer* tr = me.tracer())
    tr->instant(me.id(), trace::Phase::DomainDead, me.clock().now(),
                static_cast<std::uint64_t>(kd));
  // Make the declaration (and with it the replica redirect) team-wide
  // before any adoption traffic is issued.
  me.barrier();

  const MachineModel& mm = me.machine();
  const bool zombie = mm.domain_of(me.id()) == kd;

  // Adoption reads flow through the cooperative cache exactly like executor
  // operand fetches: several adopters of one dead rank share its A panels.
  // Size the recovery epoch for the whole replayed working set — every A/B
  // panel the dead ranks' plans touch — so each surviving domain fetches a
  // panel at most once (single-flight) and replays the rest from cache; an
  // LRU sized for the executor's rotating slots would thrash here.
  std::uint64_t cache_cap = 0;
  for (int r = 0; r < mm.total_ranks(); ++r) {
    const std::uint64_t ab =
        static_cast<std::uint64_t>(a.block_rows(r)) *
            static_cast<std::uint64_t>(a.block_cols(r)) +
        static_cast<std::uint64_t>(b.block_rows(r)) *
            static_cast<std::uint64_t>(b.block_cols(r));
    cache_cap = std::max(cache_cap, ab * sizeof(double));
  }
  cache_cap *= static_cast<std::uint64_t>(mm.domain_size()) * 2;
  // keep_warm: this epoch CONTINUES the multiply's read-only quiescent
  // period (the executor's end_epoch kept its entries for us), so the
  // panels survivors fetched during the run — including the dead ranks'
  // own A/B blocks, cached under the matrix-level region seq that replica
  // redirect preserves — serve adoption reads without touching the wire.
  CacheEpoch cache_epoch(me, a, b, cache_cap, /*keep_warm=*/true);

  if (!zombie) {
    // Every dead rank's plan, rebuilt from the layouts, and its commit
    // chains in deterministic (rank, tile) order.  chain_layout is the
    // same grouping the engine executes and the static analyzer certifies,
    // so repaired chains inherit the audited plan-order structure.
    std::vector<DeadPlan> dead;
    for (int r = 0; r < mm.total_ranks(); ++r) {
      if (mm.domain_of(r) != kd) continue;
      DeadPlan dp;
      dp.rank = r;
      dp.tuned = tune_options(r, mm, a.layout(), b.layout(), c.layout(), opt);
      dp.plan =
          build_task_plan(r, mm, a.layout(), b.layout(), c.layout(), dp.tuned);
      dead.push_back(std::move(dp));
    }
    std::vector<LostChain> chains;
    for (const DeadPlan& dp : dead) {
      ChainLayout cl = chain_layout(dp.plan);
      for (std::vector<std::size_t>& chain : cl.tile_tasks) {
        const Task& t0 = dp.plan.tasks[chain.front()];
        chains.push_back(LostChain{&dp, c.block_row_start(dp.rank) + t0.ci,
                                   c.block_col_start(dp.rank) + t0.cj,
                                   std::move(chain)});
      }
    }
    // Order chains by global C tile COLUMN (then dead rank, then row):
    // every chain of one column replays against the same B panels, so a
    // contiguous range handed to one adopter domain needs only that column
    // slice of the dead B working set — instead of pulling the whole dead
    // B column range through the buddy domain's NIC once per adopter
    // domain.
    std::stable_sort(chains.begin(), chains.end(),
                     [](const LostChain& x, const LostChain& y) {
                       if (x.gj != y.gj) return x.gj < y.gj;
                       if (x.dead->rank != y.dead->rank)
                         return x.dead->rank < y.dead->rank;
                       return x.gi < y.gi;
                     });
    // Deterministic affinity-weighted contiguous assignment over the
    // survivors (a real-time claim race would let one OS thread grab most
    // chains before the others arrive, piling every other survivor's
    // modeled recovery time onto one virtual clock — and every rank then
    // pays it at the final barrier; contiguous ranges also keep the
    // replay's virtual timing exactly reproducible).
    //
    // The weights encode where the dead ranks' panels already ARE.  The
    // replay's bottleneck is not compute but the buddy domain's NIC: every
    // domain that owns none of the dead working set refetches it from the
    // one replica holder, so adding survivors adds EGRESS on that single
    // pair of links instead of spreading load.  But most of the working
    // set is already resident elsewhere: a domain on the dead ranks' C
    // grid ROW fetched the same A panels during its own multiply (owner-
    // computes row locality) and still holds them — the warm cache epoch
    // keeps them servable — a domain on the dead grid COLUMN holds the B
    // panels the same way, and the buddy domain reads the replica segments
    // at shared-memory rates.  Chains go ONLY to those domains: a domain
    // with no resident copy of anything would contribute a little compute
    // but add a full working-set refetch to the replica-NIC queue, which
    // is the critical path.  The adopter set is never empty — the buddy
    // domain is alive by construction (buddy_offset is validated against
    // the domain count).
    const int buddy_dom = (kd + fp->buddy_offset()) % mm.num_domains();
    std::vector<int> dead_rows, dead_cols;
    for (const DeadPlan& dp : dead) {
      const auto [pi, pj] = c.grid().coords_of(dp.rank);
      dead_rows.push_back(pi);
      dead_cols.push_back(pj);
    }
    const auto rank_weight = [&](int r) {
      const int d = mm.domain_of(r);
      int w = 0;
      if (d == buddy_dom) w += 3;  // replica is domain-local
      const auto [pi, pj] = c.grid().coords_of(r);
      bool row = false, col = false;
      for (const int dr : dead_rows) row = row || dr == pi;
      for (const int dc : dead_cols) col = col || dc == pj;
      if (row) w += 3;  // dead A panels warm in my domain's cache
      if (col) w += 2;  // dead B panels warm (smaller share of the bytes)
      return w;
    };
    int total_w = 0;
    int my_lo_w = -1;
    int my_w = 0;
    for (int r = 0; r < mm.total_ranks(); ++r) {
      if (mm.domain_of(r) == kd) continue;
      const int w = rank_weight(r);
      if (r == me.id()) {
        my_lo_w = total_w;
        my_w = w;
      }
      total_w += w;
    }
    SRUMMA_ASSERT(my_lo_w >= 0, "recovery: survivor not in survivor list");
    const std::size_t nc = chains.size();
    const std::size_t lo = nc * static_cast<std::size_t>(my_lo_w) /
                           static_cast<std::size_t>(total_w);
    const std::size_t hi = nc * static_cast<std::size_t>(my_lo_w + my_w) /
                           static_cast<std::size_t>(total_w);
    adopt(me, a, b, c, chains, lo, hi, pool);
  }

  cache_epoch.close(me);
  // Repairs published before anyone gathers or reuses the matrices.
  me.barrier();
}

}  // namespace srumma::engine
