#include "engine/recovery.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/operand.hpp"
#include "runtime/team.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace srumma::engine {

namespace {

struct Deposit {
  TaskPlan plan;
  SrummaOptions opt;
};

// One adoptable unit of lost work: a dead rank's C tile with its in-plan-
// order commit chain (indices into the dead rank's deposited plan).
struct LostChain {
  int dead_rank = -1;
  std::vector<std::size_t> task_idxs;
};

}  // namespace

struct RecoveryGuard::Session {
  std::mutex mu;
  std::map<int, Deposit> deposits;  // rank id -> plan + options
  std::vector<LostChain> chains;    // built once, after the declaration
  bool chains_built = false;
  int users = 0;
};

std::mutex& RecoveryGuard::registry_mu() {
  static auto* mu = new std::mutex();
  return *mu;
}

std::map<Team*, std::shared_ptr<RecoveryGuard::Session>>&
RecoveryGuard::registry() {
  static auto* m = new std::map<Team*, std::shared_ptr<Session>>();
  return *m;
}

RecoveryGuard::RecoveryGuard(Rank& me) : team_(&me.team()) {
  std::lock_guard<std::mutex> lk(registry_mu());
  std::shared_ptr<Session>& slot = registry()[team_];
  if (!slot) slot = std::make_shared<Session>();
  slot->users += 1;
  ses_ = slot;
}

RecoveryGuard::~RecoveryGuard() {
  std::lock_guard<std::mutex> lk(registry_mu());
  if (--ses_->users == 0) registry().erase(team_);
}

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

void RecoveryGuard::deposit(Rank& me, const TaskPlan& plan,
                            const SrummaOptions& opt) {
  std::lock_guard<std::mutex> lk(ses_->mu);
  ses_->deposits[me.id()] = Deposit{plan, opt};
}

namespace {

// Replay a contiguous range of lost chains from the buddy replicas.  Each
// chain's scratch tile starts from the replica's post-beta snapshot and
// accumulates the chain's block products in plan order — the exact operand
// values and op sequence the dead owner would have run — so every
// reconstructed tile is bitwise the fault-free result.  The final stores
// redirect into the buddy's replica (the dead ranks' own segments are
// unreachable), which is where gather_to contributes dead-domain blocks
// from.
//
// The whole range runs as ONE flat task stream through a single prefetch
// ring: operand fetches for up to `depth` upcoming tasks are in flight
// across chain boundaries while earlier tasks compute, seeds are all
// issued up front, and the tile stores drain together at the end — so the
// replay pays max(comm, compute) like the executors do, not per-chain
// round trips (this is what keeps the recovery-overhead bar in
// BENCH_chaos.json within reach).
void adopt_range(Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c,
                 const std::vector<LostChain>& chains, std::size_t lo,
                 std::size_t hi, const std::map<int, Deposit>& deposits) {
  if (lo >= hi) return;
  const bool phantom = c.phantom();

  struct Tile {
    const LostChain* ch;
    const Deposit* dep;
    index_t gi, gj, cm, cn;
    Matrix scratch;
    MatrixView sv;
    PatchHandle seed;
    bool seeded;
    PatchHandle store;
  };
  struct Item {
    const Task* t;
    std::size_t idx;  // index in the dead rank's plan (TaskRearm arg)
    std::size_t tile;
    bool first, last;
  };
  std::vector<Tile> tiles;
  std::vector<Item> stream;
  tiles.reserve(hi - lo);
  for (std::size_t ci = lo; ci < hi; ++ci) {
    const LostChain& ch = chains[ci];
    SRUMMA_ASSERT(!ch.task_idxs.empty(), "recovery: empty commit chain");
    const Deposit& dep = deposits.at(ch.dead_rank);
    const Task& t0 = dep.plan.tasks[ch.task_idxs.front()];
    Tile tl;
    tl.ch = &ch;
    tl.dep = &dep;
    tl.gi = c.block_row_start(ch.dead_rank) + t0.ci;
    tl.gj = c.block_col_start(ch.dead_rank) + t0.cj;
    tl.cm = t0.cm;
    tl.cn = t0.cn;
    // The scratch seed is the replica's post-beta snapshot.  With beta == 0
    // that snapshot is identically zero — srumma_multiply skipped the C
    // mirror bytes entirely — so the seed is a local zero fill, no wire.
    tl.seeded = dep.opt.beta != 0.0;
    if (!phantom) {
      tl.scratch = Matrix(t0.cm, t0.cn);
      tl.sv = tl.scratch.block(0, 0, t0.cm, t0.cn);
      if (!tl.seeded) tl.sv.fill(0.0);
    }
    tiles.push_back(std::move(tl));
    const std::size_t tix = tiles.size() - 1;
    for (std::size_t k = 0; k < ch.task_idxs.size(); ++k)
      stream.push_back(Item{&dep.plan.tasks[ch.task_idxs[k]],
                            ch.task_idxs[k], tix, k == 0,
                            k + 1 == ch.task_idxs.size()});
  }
  // All seeds up front: the gets overlap each other, the operand prefetch
  // ring below, and the first chains' compute.  Transient faults on the
  // (live) buddy path retry like any executor fetch, at first use.
  for (Tile& tl : tiles)
    if (tl.seeded) tl.seed = c.fetch_nb(me, tl.gi, tl.gj, tl.cm, tl.cn, tl.sv);

  const std::size_t depth = std::min<std::size_t>(
      stream.size(),
      std::max<std::size_t>(
          4, static_cast<std::size_t>(tiles.front().dep->opt.lookahead) + 2));
  struct Inflight {
    OperandState sa;
    OperandState sb;
  };
  std::vector<Inflight> fl(depth);
  const auto issue = [&](std::size_t i) {
    const Task& t = *stream[i].t;
    const SrummaOptions& opt = tiles[stream[i].tile].dep->opt;
    Inflight& f = fl[i % depth];
    acquire(me, a, t.a_i0, t.a_j0, t.a_m, t.a_n, opt.shm_flavor, f.sa);
    acquire(me, b, t.b_i0, t.b_j0, t.b_m, t.b_n, opt.shm_flavor, f.sb);
  };
  for (std::size_t i = 0; i < depth; ++i) issue(i);

  std::optional<trace::SpanGuard> adopt_span;
  for (std::size_t ti = 0; ti < stream.size(); ++ti) {
    const Task& t = *stream[ti].t;
    Tile& tl = tiles[stream[ti].tile];
    const SrummaOptions& opt = tl.dep->opt;
    if (stream[ti].first) {
      adopt_span.emplace(me.tracer(), me.id(), trace::Phase::Adopt,
                         me.clock(),
                         static_cast<std::uint64_t>(tl.ch->dead_rank));
      ReissueBudget seed_budget{
          16, "recovery: replica seed fetch keeps failing after retries"};
      while (tl.seeded && !c.try_wait(me, tl.seed)) {
        seed_budget.charge(me, stream[ti].idx);
        tl.seed = c.fetch_nb(me, tl.gi, tl.gj, tl.cm, tl.cn, tl.sv);
      }
    }
    OperandState& sa = fl[ti % depth].sa;
    OperandState& sb = fl[ti % depth].sb;
    // An adopter is a survivor: its own domain is never the killed one, so
    // settle always delivers.
    ReissueBudget budget{
        16, "recovery: adopted-task operand keeps failing after retries"};
    const bool settled =
        settle(me, a, b, t, opt, sa, sb, budget, stream[ti].idx);
    SRUMMA_ASSERT(settled, "recovery: adopter's own domain is dead");
    // Scratch is adopter-local, so the C-tile write is not declared
    // against put epochs; the store below is.
    multiply(me, opt, a, b, nullptr, t, sa, sb, tl.sv);
    me.trace().tasks_adopted += 1;
    if (ti + depth < stream.size()) issue(ti + depth);
    if (stream[ti].last) {
      // Tile complete: launch the store and move on — the next chain's
      // operands are already in the ring; all stores drain below.
      tl.store = c.store_nb(me, tl.gi, tl.gj, tl.cm, tl.cn, tl.sv);
      adopt_span.reset();
    }
  }
  for (Tile& tl : tiles) {
    ReissueBudget store_budget{
        16, "recovery: reconstructed-tile store keeps failing after retries"};
    while (!c.try_wait(me, tl.store)) {
      store_budget.charge(me, tl.ch->task_idxs.back());
      tl.store = c.store_nb(me, tl.gi, tl.gj, tl.cm, tl.cn, tl.sv);
    }
  }
}

}  // namespace

void RecoveryGuard::run(Rank& me, DistMatrix& a, DistMatrix& b,
                        DistMatrix& c) {
  fault::FaultPlane* fp = me.team().faults();
  SRUMMA_REQUIRE(fp != nullptr && fp->kill_enabled(),
                 "recovery: run() needs a fault plane with a kill configured");
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
    // Build the chain list once: every dead rank's commit chains, in
    // deterministic (rank, tile) order.  chain_layout is the same grouping
    // the engine executes and the static analyzer certifies, so repaired
    // chains inherit the audited plan-order structure.
    {
      std::lock_guard<std::mutex> lk(ses_->mu);
      if (!ses_->chains_built) {
        for (const auto& [r, dep] : ses_->deposits) {
          if (mm.domain_of(r) != kd) continue;
          const ChainLayout cl = chain_layout(dep.plan);
          for (const std::vector<std::size_t>& chain : cl.tile_tasks) {
            LostChain lc;
            lc.dead_rank = r;
            lc.task_idxs = chain;
            ses_->chains.push_back(std::move(lc));
          }
        }
        // Order chains by global C tile COLUMN (then dead rank, then row):
        // every chain of one column replays against the same B panels, so
        // a contiguous range handed to one adopter domain needs only that
        // column slice of the dead B working set — instead of pulling the
        // whole dead B column range through the buddy domain's NIC once
        // per adopter domain.
        std::stable_sort(
            ses_->chains.begin(), ses_->chains.end(),
            [&](const LostChain& x, const LostChain& y) {
              const Task& tx = ses_->deposits.at(x.dead_rank)
                                   .plan.tasks[x.task_idxs.front()];
              const Task& ty = ses_->deposits.at(y.dead_rank)
                                   .plan.tasks[y.task_idxs.front()];
              const index_t xj = c.block_col_start(x.dead_rank) + tx.cj;
              const index_t yj = c.block_col_start(y.dead_rank) + ty.cj;
              if (xj != yj) return xj < yj;
              if (x.dead_rank != y.dead_rank) return x.dead_rank < y.dead_rank;
              return c.block_row_start(x.dead_rank) + tx.ci <
                     c.block_row_start(y.dead_rank) + ty.ci;
            });
        ses_->chains_built = true;
      }
    }
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
    for (int r = 0; r < mm.total_ranks(); ++r) {
      if (mm.domain_of(r) != kd) continue;
      const auto [pi, pj] = c.grid().coords_of(r);
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
    const std::size_t nc = ses_->chains.size();
    const std::size_t lo = nc * static_cast<std::size_t>(my_lo_w) /
                           static_cast<std::size_t>(total_w);
    const std::size_t hi = nc * static_cast<std::size_t>(my_lo_w + my_w) /
                           static_cast<std::size_t>(total_w);
    adopt_range(me, a, b, c, ses_->chains, lo, hi, ses_->deposits);
  }

  cache_epoch.close(me);
  // Repairs published before anyone gathers or reuses the matrices.
  me.barrier();
}

}  // namespace srumma::engine
