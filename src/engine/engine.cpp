#include "engine/engine.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "engine/operand.hpp"
#include "fault/fault_plane.hpp"
#include "runtime/abortable_wait.hpp"
#include "runtime/team.hpp"
#include "trace/tracer.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace srumma::engine {

namespace {

// ---------------------------------------------------------------------------
// Shared per-team state: one steal board per shared-memory domain.
//
// Ranks share the process (fibers over a worker pool by default, or one OS
// thread each; docs/HARNESS.md), so the board is plain shared memory under
// a mutex — the modeled cost of the steal protocol is charged separately
// (operand fetches on the thief's clock, one intra-domain tile copy each
// way).  A rank parks on the condition variable by yielding its fiber; the
// cv is registered with the Team's abort list so a parked rank wakes
// promptly when a peer throws.
// ---------------------------------------------------------------------------

// One stealable task posted by its owner.  All claim/handback fields are
// guarded by the owning domain's mutex; `task`, `task_idx`, `victim`,
// `tile`, `pos`, `work_vt`, `src_nodes` and `c_tile` are immutable after
// the owner registers its board.
struct StolenTask {
  Task task;
  std::size_t task_idx = 0;  // owner's plan index (trace arg)
  int victim = -1;
  int tile = -1;  // owner tile id, indexes the owner's commit chain
  int pos = 0;    // position in that tile's in-plan-order commit chain
  double work_vt = 0.0;  // modeled steal cost, see StealBid::work_vt
  std::array<int, 2> src_nodes{-1, -1};  // nodes the operands cross from
  MatrixView c_tile;  // owner's C tile (empty in phantom mode)
  // -- claim state, under the domain mutex ---------------------------------
  int thief = -1;  // -1 free; the owner self-claims at issue time
  bool done = false;
  double publish_vt = 0.0;
  Matrix result;  // thief's finished tile copy (empty in phantom mode)
};

// Per-rank state a domain mate may touch: the commit chains a thief waits
// on, and the pool of stealable tasks.  Heap-held via shared_ptr so a
// thief's reference stays valid even if the owner unwinds on an abort.
struct RankBoard {
  std::vector<int> commits;       // tile -> products committed so far
  std::vector<double> commit_vt;  // tile -> virtual time of latest commit
  // Victim horizon: a lower bound on when the owner can next run its own
  // work (its clock, raised to the earliest operand landing of its chain
  // heads).  Only ever rises, so a thief reading a stale value errs
  // towards denying the steal.
  double horizon = 0.0;
  std::vector<StolenTask> descs;  // stable: never resized after registration
  std::deque<std::size_t> pool;   // indices into descs, not yet thief-claimed
};

struct DomainBoard {
  std::mutex mu;
  std::condition_variable cv;
  std::map<int, std::shared_ptr<RankBoard>> boards;  // rank id -> board
  // Ranks that have registered this multiply.  Monotonic, unlike
  // boards.size(), which dips again when a fast rank finishes and
  // deregisters — the registration rendezvous must not key on that.
  int arrived = 0;
};

struct TeamEngine {
  std::vector<std::unique_ptr<DomainBoard>> domains;  // by domain id
  std::vector<std::uint64_t> abort_cv_ids;            // registry slots
  int users = 0;
};

std::mutex g_registry_mu;
std::map<Team*, std::shared_ptr<TeamEngine>>& registry() {
  static auto* m = new std::map<Team*, std::shared_ptr<TeamEngine>>();
  return *m;
}

// Rendezvous on the per-team engine state.  Sound without extra barriers:
// srumma_multiply's entry barrier precedes every construction and the
// collect_result barriers follow every destruction, so two multiplies never
// share a TeamEngine and a Team address is never reused while an entry for
// it exists (guards unwind on exceptions too).
class TeamEngineGuard {
 public:
  explicit TeamEngineGuard(Rank& me) : team_(&me.team()) {
    std::lock_guard<std::mutex> lk(g_registry_mu);
    std::shared_ptr<TeamEngine>& slot = registry()[team_];
    if (!slot) {
      slot = std::make_shared<TeamEngine>();
      const int nd = team_->machine().num_domains();
      for (int d = 0; d < nd; ++d) {
        slot->domains.push_back(std::make_unique<DomainBoard>());
        slot->abort_cv_ids.push_back(
            team_->add_abort_cv(&slot->domains.back()->cv));
      }
    }
    slot->users += 1;
    eng_ = slot;
  }
  ~TeamEngineGuard() {
    std::lock_guard<std::mutex> lk(g_registry_mu);
    if (--eng_->users == 0) {
      for (const std::uint64_t id : eng_->abort_cv_ids)
        team_->remove_abort_cv(id);
      registry().erase(team_);
    }
  }
  TeamEngineGuard(const TeamEngineGuard&) = delete;
  TeamEngineGuard& operator=(const TeamEngineGuard&) = delete;

  [[nodiscard]] DomainBoard& domain(int d) {
    return *eng_->domains[static_cast<std::size_t>(d)];
  }

 private:
  Team* team_;
  std::shared_ptr<TeamEngine> eng_;
};

// Model one intra-domain tile copy (steal handback traffic), mirroring the
// same-domain branch of RmaRuntime::transfer and the cache's
// consume_shared: the copying CPU pays latency + per-rank copy time and
// queues on the domain's aggregate memory system.  No fault draw — the
// copy is process-local, not a transport op.
void charge_shm_copy(Rank& me, std::uint64_t bytes) {
  const MachineModel& mm = me.machine();
  VClock& clk = me.clock();
  const double t0 = clk.now();
  const double dbytes = static_cast<double>(bytes);
  const double dur = dbytes / mm.shm_bw;
  const double ready = t0 + mm.shm_latency;
  const double agg = me.team()
                         .network()
                         .domain_mem(me.domain())
                         .book(ready, dbytes / mm.domain_agg_bw());
  clk.sync_to(std::max(ready + dur, agg));
  me.trace().time_comm += dur;
  me.trace().bytes_shm += bytes;
}

// Uncontended modeled time to fetch one operand patch, mirroring acquire()
// and RmaRuntime::transfer: read in place costs nothing (but may slow the
// dgemm, folded into `rate_factor`), out-of-domain bytes pay the request
// latency plus wire time on the owner's link (straggler factor included),
// in-domain bytes a local copy.  The block cache is ignored, so a hit
// only makes the estimate pessimistic.  `src_node` receives the node the
// remote bytes come from (-1 when there are none).
double fetch_estimate(Rank& me, DistMatrix& mat, index_t i0, index_t j0,
                      index_t mi, index_t nj, ShmFlavor flavor,
                      double& rate_factor, int& src_node) {
  const MachineModel& mm = me.machine();
  fault::FaultPlane* fp = me.team().faults();
  if (flavor == ShmFlavor::Direct) {
    const std::optional<int> owner =
        mat.single_owner_in_domain(me, i0, j0, mi, nj);
    if (owner.has_value() &&
        (fp == nullptr || !fp->direct_faults(mm.domain_of(*owner)))) {
      rate_factor = std::min(rate_factor, mm.node_of(*owner) == me.node()
                                              ? 1.0
                                              : mm.remote_direct_rate_factor);
      return 0.0;
    }
  }
  const double total = static_cast<double>(mi) * static_cast<double>(nj) *
                       sizeof(double);
  const double remote =
      static_cast<double>(mat.remote_piece_bytes(me, i0, j0, mi, nj));
  double t = mm.rma_issue_overhead;
  if (remote > 0.0) {
    src_node = mm.node_of(mat.owner(i0, j0));
    double wire = remote / mm.net_bw;
    if (!mat.rma().zero_copy()) wire += remote / mm.host_copy_bw;
    if (fp != nullptr) wire *= fp->link_delay(src_node, me.node());
    t += mm.net_latency + wire;
  }
  if (total > remote) t += mm.shm_latency + (total - remote) / mm.shm_bw;
  return t;
}

void copy_tile(MatrixView dst, ConstMatrixView src) {
  for (index_t j = 0; j < dst.cols(); ++j)
    for (index_t i = 0; i < dst.rows(); ++i) dst(i, j) = src(i, j);
}

}  // namespace

ChainLayout chain_layout(const TaskPlan& plan) {
  const std::vector<Task>& tasks = plan.tasks;
  const std::size_t n_tasks = tasks.size();
  ChainLayout cl;
  cl.task_tile.resize(n_tasks);
  cl.task_pos.resize(n_tasks);
  std::map<std::pair<index_t, index_t>, int> tile_of;
  for (std::size_t i = 0; i < n_tasks; ++i) {
    const auto key = std::make_pair(tasks[i].ci, tasks[i].cj);
    const auto [it, fresh] =
        tile_of.try_emplace(key, static_cast<int>(cl.tile_tasks.size()));
    if (fresh) cl.tile_tasks.emplace_back();
    cl.task_tile[i] = it->second;
    cl.task_pos[i] =
        static_cast<int>(cl.tile_tasks[static_cast<std::size_t>(it->second)]
                             .size());
    cl.tile_tasks[static_cast<std::size_t>(it->second)].push_back(i);
  }
  return cl;
}

std::vector<std::size_t> stealable_tasks(const TaskPlan& plan,
                                         int domain_size) {
  std::vector<std::size_t> out;
  if (domain_size <= 1) return out;
  for (std::size_t i = 0; i < plan.tasks.size(); ++i)
    if (!plan.tasks[i].in_domain()) out.push_back(i);
  return out;
}

bool steal_admitted(const StealBid& bid) {
  if (bid.pos != bid.cursor) return false;
  return std::max(bid.thief_now, bid.pred_vt) + bid.work_vt <= bid.horizon;
}

bool selected(EngineMode mode) {
  if (mode == EngineMode::Auto)
    return env::flag("SRUMMA_ENGINE").value_or(false);
  return mode == EngineMode::On;
}

void run_plan(Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c,
              const SrummaOptions& opt, int lookahead, const TaskPlan& plan) {
  const MachineModel& mm = me.machine();
  trace::Tracer* tr = me.tracer();
  const bool phantom = c.phantom();
  const std::vector<Task>& tasks = plan.tasks;
  const std::size_t n_tasks = tasks.size();

  TeamEngineGuard eng(me);
  DomainBoard& dom = eng.domain(me.domain());

  // Fail-stop hooks: a configured kill trips at this rank's next prefetch
  // issue, chain advance or steal attempt.  Once killed the rank is a
  // zombie: it bails at a task boundary, drains in-flight state and keeps
  // joining collectives.  The trip notifies the domain cv because mates may
  // be parked on it (predecessor commits, handbacks) waiting on work this
  // domain will now never publish — every such predicate has a killed
  // escape.
  fault::FaultPlane* fp = me.team().faults();
  const bool kill_active = fp != nullptr && fp->kill_enabled();
  const auto killed_now = [&] {
    return kill_active && fp->domain_killed(me.domain());
  };
  const auto trip = [&](fault::KillPoint p) {
    if (kill_active &&
        fp->reach_kill_point(p, me.domain(), me.clock().now())) {
      dom.cv.notify_all();
    }
  };

  // -- task graph setup ------------------------------------------------------
  // Group tasks by C tile; each tile's products commit in plan order (the
  // bitwise-identity invariant), execution order across tiles is free.
  // chain_layout is shared with the static analyzer, which certifies these
  // chains acyclic and deadlock-free before any run (docs/ANALYSIS.md).
  const ChainLayout chains = chain_layout(plan);
  const std::vector<std::vector<std::size_t>>& tile_tasks = chains.tile_tasks;
  const std::vector<int>& task_tile = chains.task_tile;
  const std::vector<int>& task_pos = chains.task_pos;
  const int n_tiles = chains.tiles();

  // Operand slots, deduplicated by patch identity: the task graph hands
  // each distinct patch one owner, shared by every consumer and released
  // when the last consumer commits.  (The a_reuse ordering policy still
  // shapes the plan order — and thus how long a patch stays live — but
  // dedup here is structural, not an ordering accident.)
  struct Slot {
    OperandState st;
    DistMatrix* mat = nullptr;  // which matrix the slot's patch is of
    int refs = 0;      // consumers not yet committed or stolen away
    int inflight = 0;  // consumers issued and not yet committed
    bool issued = false;
    bool waited = false;
    double ready_vt = 0.0;
  };
  std::deque<Slot> slots;  // stable storage
  using PatchKey = std::array<index_t, 4>;
  std::map<PatchKey, int> a_slot_of;
  std::map<PatchKey, int> b_slot_of;
  std::vector<int> a_slot(n_tasks);
  std::vector<int> b_slot(n_tasks);
  const auto slot_for = [&](std::map<PatchKey, int>& m, DistMatrix& mat,
                            index_t i0, index_t j0, index_t pm, index_t pn) {
    const auto [it, fresh] =
        m.try_emplace(PatchKey{i0, j0, pm, pn}, static_cast<int>(slots.size()));
    if (fresh) {
      slots.emplace_back();
      slots.back().mat = &mat;
    }
    return it->second;
  };
  for (std::size_t i = 0; i < n_tasks; ++i) {
    const Task& t = tasks[i];
    a_slot[i] = slot_for(a_slot_of, a, t.a_i0, t.a_j0, t.a_m, t.a_n);
    b_slot[i] = slot_for(b_slot_of, b, t.b_i0, t.b_j0, t.b_m, t.b_n);
    slots[static_cast<std::size_t>(a_slot[i])].refs += 1;
    slots[static_cast<std::size_t>(b_slot[i])].refs += 1;
  }

  // -- steal board registration ----------------------------------------------
  // Stealable = any task with an out-of-domain operand (the thief refetches
  // operands itself, so only remote-fetch work is worth exporting).  On
  // single-domain machines every task is in-domain and the board stays
  // empty.  Each descriptor carries what stealing it would cost in virtual
  // time: thief and owner share a node, so the owner's estimate is the
  // thief's.
  auto board = std::make_shared<RankBoard>();
  board->commits.assign(static_cast<std::size_t>(n_tiles), 0);
  board->commit_vt.assign(static_cast<std::size_t>(n_tiles), 0.0);
  board->horizon = me.clock().now();
  std::vector<std::ptrdiff_t> desc_of_task(n_tasks, -1);
  for (const std::size_t i : stealable_tasks(plan, mm.domain_size())) {
    const Task& t = tasks[i];
    StolenTask d;
    d.task = t;
    d.task_idx = i;
    d.victim = me.id();
    d.tile = task_tile[i];
    d.pos = task_pos[i];
    double rate = 1.0;
    const double fetch =
        fetch_estimate(me, a, t.a_i0, t.a_j0, t.a_m, t.a_n, opt.shm_flavor,
                       rate, d.src_nodes[0]) +
        fetch_estimate(me, b, t.b_i0, t.b_j0, t.b_m, t.b_n, opt.shm_flavor,
                       rate, d.src_nodes[1]);
    const double tile_copy =
        mm.shm_latency + static_cast<double>(t.cm) *
                             static_cast<double>(t.cn) * sizeof(double) /
                             mm.shm_bw;
    d.work_vt =
        2.0 * tile_copy + fetch + mm.dgemm.time(t.cm, t.cn, t.kk) / rate;
    if (!phantom) d.c_tile = c.local_view(me).block(t.ci, t.cj, t.cm, t.cn);
    desc_of_task[i] = static_cast<std::ptrdiff_t>(board->descs.size());
    board->descs.push_back(std::move(d));
  }
  {
    std::lock_guard<std::mutex> lk(dom.mu);
    for (std::size_t i = 0; i < board->descs.size(); ++i)
      board->pool.push_back(i);
    dom.boards[me.id()] = board;
    dom.arrived += 1;
  }
  dom.cv.notify_all();
  struct BoardDereg {
    DomainBoard* dom;
    int id;
    ~BoardDereg() {
      std::lock_guard<std::mutex> lk(dom->mu);
      dom->boards.erase(id);
    }
  } board_dereg{&dom, me.id()};

  // Registration rendezvous: wait until every domain mate's board is up.
  // Ranks run in real time independently of their virtual clocks — a
  // fiber runs until it blocks, so one rank can finish its whole plan
  // before a mate starts — and without this rendezvous the boards of
  // domain mates may never coexist and no steal could ever be observed.
  // Every rank reaches this point — the dispatch in srumma_multiply is
  // uniform across the team and nothing above blocks — so the wait is
  // deadlock-free; a peer that throws earlier aborts the team, which wakes
  // this cv.
  {
    int domain_ranks = 0;
    for (int r = 0; r < me.team().size(); ++r)
      if (mm.domain_of(r) == me.domain()) ++domain_ranks;
    std::unique_lock<std::mutex> lk(dom.mu);
    park_until(lk, dom.cv, [&] {
      return me.team().aborted() || dom.arrived == domain_ranks;
    });
    if (me.team().aborted())
      throw Error("engine: team aborted during board rendezvous");
  }

  // -- cooperative block cache epoch (same policy as the static pipeline) ----
  CacheEpoch cache_epoch(me, a, b, executor_cache_cap(mm, plan, lookahead));

  // -- executor state --------------------------------------------------------
  // Issue window: how many own tasks may hold operand slots at once.  The
  // pipeline's lookahead bounds it so both executors run under comparable
  // buffer budgets; blocking mode (lookahead 0) degenerates to
  // issue-one-execute-one.
  const std::size_t window = static_cast<std::size_t>(lookahead) + 1;
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;
  // One re-arm budget for the whole multiply, own tasks and steals alike.
  ReissueBudget budget{4 * n_tasks + 16,
                       "engine: operand reissue budget exhausted — transfers "
                       "keep failing after RMA retries"};

  const auto patch_bytes = [](const Task& t, bool is_a) {
    return is_a ? static_cast<std::uint64_t>(t.a_m) *
                      static_cast<std::uint64_t>(t.a_n) * sizeof(double)
                : static_cast<std::uint64_t>(t.b_m) *
                      static_cast<std::uint64_t>(t.b_n) * sizeof(double);
  };

  const auto acquire_slot = [&](DistMatrix& mat, Slot& s, const Task& t,
                                bool is_a) {
    const std::uint64_t before = s.st.cap_bytes;
    if (is_a) {
      acquire(me, mat, t.a_i0, t.a_j0, t.a_m, t.a_n, opt.shm_flavor, s.st);
    } else {
      acquire(me, mat, t.b_i0, t.b_j0, t.b_m, t.b_n, opt.shm_flavor, s.st);
    }
    live_bytes += s.st.cap_bytes - before;
    peak_bytes = std::max(peak_bytes, live_bytes);
    s.issued = true;
    s.waited = false;
  };

  // Drop a slot's buffer (budget pressure, or last consumer gone).  Only
  // legal once no issued consumer depends on it; a later consumer simply
  // re-acquires.
  const auto release_slot = [&](Slot& s) {
    SRUMMA_ASSERT(s.inflight == 0 && !s.st.cache_ref.active(),
                  "engine: releasing an operand slot still in use");
    live_bytes -= s.st.cap_bytes;
    s.st = OperandState{};
    s.issued = false;
    s.waited = false;
  };

  const auto deref_slot = [&](int si) {
    Slot& s = slots[static_cast<std::size_t>(si)];
    s.refs -= 1;
    if (s.refs == 0 && s.issued) release_slot(s);
  };

  // Wait/verify/finish one slot for the consumer that got there first;
  // later consumers just sync their clock to the slot's ready time (the
  // bytes exist only from that point in virtual time).  Per slot rather
  // than settle()'s per task, because slots dedup patches across tasks.
  const auto wait_slot = [&](DistMatrix& mat, Slot& s) {
    if (s.waited) {
      const double now = me.clock().now();
      if (s.ready_vt > now) {
        me.trace().time_wait += s.ready_vt - now;
        me.clock().sync_to(s.ready_vt);
        if (tr != nullptr)
          tr->span(me.id(), trace::Phase::Wait, now, s.ready_vt);
      }
      return;
    }
    const bool fetched = s.st.handle.pending;
    if (fetched && !mat.try_wait(me, s.st.handle)) s.st.failed = true;
    if (opt.verify_checksums && fetched) verify_operand(me, mat, s.st);
    finish_cache(me, mat, s.st, fetched, opt.verify_checksums);
    s.waited = true;
    s.ready_vt = me.clock().now();
  };

  std::size_t committed = 0;  // products landed in my C block (incl. handbacks)
  std::vector<std::size_t> inflight;  // issued, uncommitted own tasks
  std::size_t next = 0;               // next plan index to consider issuing

  const auto commit = [&](int tile) {
    {
      std::lock_guard<std::mutex> lk(dom.mu);
      const double now = me.clock().now();
      board->commits[static_cast<std::size_t>(tile)] += 1;
      board->commit_vt[static_cast<std::size_t>(tile)] = now;
      board->horizon = std::max(board->horizon, now);
    }
    dom.cv.notify_all();
    ++committed;
  };

  // Earliest virtual time the task's operands can all be consumed —
  // known at issue time because RMA completions are computed when the get
  // is posted.
  const auto ready_estimate = [&](std::size_t idx) {
    double r = me.clock().now();
    for (const int si : {a_slot[idx], b_slot[idx]}) {
      const Slot& s = slots[static_cast<std::size_t>(si)];
      if (s.waited) {
        r = std::max(r, s.ready_vt);
      } else if (s.st.handle.pending) {
        r = std::max(r, s.st.handle.completion());
      }
    }
    return r;
  };

  // -- thief side ------------------------------------------------------------
  // Claim a stealable task from a domain mate, fetch its operands on our
  // own clock and fault stream, seed a scratch tile with the owner's
  // current C tile, run the product, and publish the finished tile for the
  // owner to commit.
  const auto try_steal = [&]() -> bool {
    trip(fault::KillPoint::Steal);
    if (killed_now()) return false;
    StolenTask* d = nullptr;
    std::shared_ptr<RankBoard> vb;  // keeps *d alive if the victim unwinds
    double pred_vt = 0.0;
    int denied_victim = -1;
    {
      std::lock_guard<std::mutex> lk(dom.mu);
      // Scan mates starting past my own id so thieves spread out; claimed
      // entries are lazily discarded.  Admission (steal_admitted) only
      // passes the task at its tile's commit cursor, so the predecessor
      // product has already committed and the thief never blocks on the
      // victim — and because the claim gates the chain at exactly d->pos,
      // the victim's C tile stays frozen until our handback commits.
      const double now = me.clock().now();
      NetworkState& net = me.team().network();
      auto it = dom.boards.upper_bound(me.id());
      for (std::size_t step = 0; step < dom.boards.size() && d == nullptr;
           ++step, ++it) {
        if (it == dom.boards.end()) it = dom.boards.begin();
        if (it->first == me.id()) continue;
        RankBoard& rb = *it->second;
        for (std::size_t p = rb.pool.size(); p-- > 0;) {
          const std::size_t di = rb.pool[p];
          StolenTask& cand = rb.descs[di];
          if (cand.thief >= 0) {
            rb.pool.erase(rb.pool.begin() + static_cast<std::ptrdiff_t>(p));
            continue;
          }
          // The thief's gets queue behind whatever is already booked on
          // the NICs they cross, so its fetch starts no earlier than those
          // queue tails.
          double start = now;
          for (const int src : cand.src_nodes)
            if (src >= 0)
              start = std::max({start, net.nic_out(src).next_free(),
                                net.nic_in(me.node()).next_free()});
          const auto tile = static_cast<std::size_t>(cand.tile);
          if (!steal_admitted({start, rb.commits[tile], cand.pos,
                               rb.commit_vt[tile], cand.work_vt,
                               rb.horizon})) {
            if (denied_victim < 0) denied_victim = it->first;
            continue;
          }
          d = &cand;
          d->thief = me.id();
          vb = it->second;
          pred_vt = rb.commit_vt[tile];
          rb.pool.erase(rb.pool.begin() + static_cast<std::ptrdiff_t>(p));
          break;
        }
      }
    }
    if (d == nullptr) {
      if (denied_victim >= 0) {
        me.trace().steals_denied += 1;
        if (tr != nullptr)
          tr->instant(me.id(), trace::Phase::StealDenied, me.clock().now(),
                      static_cast<std::uint64_t>(denied_victim));
      }
      return false;
    }

    if (tr != nullptr)
      tr->instant(me.id(), trace::Phase::TaskSteal, me.clock().now(),
                  d->task_idx);
    trace::SpanGuard steal_span(tr, me.id(), trace::Phase::Steal, me.clock(),
                                d->task_idx);
    const Task& t = d->task;
    OperandState sa;
    OperandState sb;
    acquire(me, a, t.a_i0, t.a_j0, t.a_m, t.a_n, opt.shm_flavor, sa);
    acquire(me, b, t.b_i0, t.b_j0, t.b_m, t.b_n, opt.shm_flavor, sb);
    // Fail-stop mid-steal: both handles are drained; discard the claim
    // (the victim is a domain mate, so it is dead too).
    if (!settle(me, a, b, t, opt, sa, sb, budget, d->task_idx)) return false;
    if (tr != nullptr)
      tr->instant(me.id(), trace::Phase::TaskReady, me.clock().now(),
                  d->task_idx);

    // The tile bytes we copy exist only from the predecessor's commit on.
    if (pred_vt > me.clock().now()) me.clock().sync_to(pred_vt);

    const std::uint64_t tile_bytes = static_cast<std::uint64_t>(t.cm) *
                                     static_cast<std::uint64_t>(t.cn) *
                                     sizeof(double);
    charge_shm_copy(me, tile_bytes);
    Matrix scratch;
    MatrixView sv;
    if (!phantom) {
      scratch = Matrix(t.cm, t.cn);
      sv = scratch.block(0, 0, t.cm, t.cn);
      copy_tile(sv, d->c_tile);
    }
    // Same kernel, operand values and beta=1 accumulation as the owner
    // would run, so the handed-back tile is bitwise what the owner would
    // have computed.  The scratch tile is engine-internal (mutex-
    // synchronized), so its write is not declared against the owner's
    // write epochs.
    multiply(me, opt, a, b, nullptr, t, sa, sb, sv);
    me.trace().tasks_stolen += 1;
    {
      std::lock_guard<std::mutex> lk(dom.mu);
      d->result = std::move(scratch);
      d->publish_vt = me.clock().now();
      d->done = true;
    }
    dom.cv.notify_all();
    return true;
  };

  // -- owner side ------------------------------------------------------------

  // Issue one own task: claim it against thieves, fetch whatever operand
  // slots are not already live.  Returns false when a thief got there
  // first (the task will come back as a handback at its commit position).
  const auto issue = [&](std::size_t idx) -> bool {
    trip(fault::KillPoint::Prefetch);
    if (killed_now()) return false;  // fail-stop: no new fetches
    if (desc_of_task[idx] >= 0) {
      std::lock_guard<std::mutex> lk(dom.mu);
      StolenTask& d = board->descs[static_cast<std::size_t>(desc_of_task[idx])];
      if (d.thief >= 0) {
        // Stolen away: the thief fetches its own operands.
        deref_slot(a_slot[idx]);
        deref_slot(b_slot[idx]);
        return false;
      }
      d.thief = me.id();  // self-claim; thieves skip it from now on
    }
    if (tr != nullptr)
      tr->instant(me.id(), trace::Phase::TaskIssue, me.clock().now(), idx);
    const Task& t = tasks[idx];
    Slot& sa = slots[static_cast<std::size_t>(a_slot[idx])];
    Slot& sb = slots[static_cast<std::size_t>(b_slot[idx])];
    if (!sa.issued) acquire_slot(a, sa, t, true);
    if (!sb.issued) acquire_slot(b, sb, t, false);
    sa.inflight += 1;
    sb.inflight += 1;
    inflight.push_back(idx);
    return true;
  };

  // Buffer-budget pressure valve: bytes the next issue would add, and the
  // early release of idle slots to make room (mirrors the pipeline's
  // eviction — a later consumer refetches).
  const auto issue_cost = [&](std::size_t idx) {
    std::uint64_t add = 0;
    const Slot& sa = slots[static_cast<std::size_t>(a_slot[idx])];
    const Slot& sb = slots[static_cast<std::size_t>(b_slot[idx])];
    if (!sa.issued) add += patch_bytes(tasks[idx], true);
    if (!sb.issued && b_slot[idx] != a_slot[idx])
      add += patch_bytes(tasks[idx], false);
    return add;
  };
  const auto relieve_budget = [&](std::size_t idx, std::uint64_t add) {
    if (opt.max_buffer_bytes == 0) return;
    for (Slot& s : slots) {
      if (live_bytes + add <= opt.max_buffer_bytes) return;
      if (&s == &slots[static_cast<std::size_t>(a_slot[idx])] ||
          &s == &slots[static_cast<std::size_t>(b_slot[idx])])
        continue;
      if (s.issued && s.waited && s.inflight == 0 && s.st.cap_bytes > 0)
        release_slot(s);
    }
  };

  // Execute one own head task.  Returns true when the product committed,
  // false when a failed operand was re-armed in place (the task keeps its
  // position; fresh fetches draw fresh fault decisions).
  const auto execute = [&](std::size_t idx) -> bool {
    const Task& t = tasks[idx];
    trace::SpanGuard task_span(tr, me.id(), trace::Phase::Task, me.clock(),
                               idx);
    Slot& sa = slots[static_cast<std::size_t>(a_slot[idx])];
    Slot& sb = slots[static_cast<std::size_t>(b_slot[idx])];
    wait_slot(a, sa);
    wait_slot(b, sb);
    if (sa.st.failed || sb.st.failed) {
      budget.charge(me, idx);
      if (sa.st.failed) acquire_slot(a, sa, t, true);
      if (sb.st.failed) acquire_slot(b, sb, t, false);
      return false;
    }
    if (tr != nullptr)
      tr->instant(me.id(), trace::Phase::TaskReady, me.clock().now(), idx);
    MatrixView c_tile;
    if (!phantom) c_tile = c.local_view(me).block(t.ci, t.cj, t.cm, t.cn);
    multiply(me, opt, a, b, &c, t, sa.st, sb.st, c_tile);
    me.trace().engine_tasks += 1;
    commit(task_tile[idx]);
    sa.inflight -= 1;
    sb.inflight -= 1;
    deref_slot(a_slot[idx]);
    deref_slot(b_slot[idx]);
    inflight.erase(std::find(inflight.begin(), inflight.end(), idx));
    return true;
  };

  // Commit one stolen task's handed-back tile at its plan position.
  const auto handback = [&](StolenTask& d) {
    trace::SpanGuard span(tr, me.id(), trace::Phase::Handback, me.clock(),
                          d.task_idx);
    double pub = 0.0;
    {
      std::unique_lock<std::mutex> lk(dom.mu);
      park_until(lk, dom.cv, [&] {
        return me.team().aborted() || killed_now() || d.done;
      });
      if (me.team().aborted())
        throw Error("engine: team aborted waiting for a handback");
      // Fail-stop while parked: the thief (a domain mate, dead with us)
      // will never publish; the main loop bails right after.
      if (killed_now() && !d.done) return;
      pub = d.publish_vt;
    }
    if (pub > me.clock().now()) me.clock().sync_to(pub);
    const std::uint64_t tile_bytes = static_cast<std::uint64_t>(d.task.cm) *
                                     static_cast<std::uint64_t>(d.task.cn) *
                                     sizeof(double);
    charge_shm_copy(me, tile_bytes);
    if (!phantom) {
      if (c.rma().checker() != nullptr)
        c.rma().declare_compute_write(me, d.c_tile.data(), d.c_tile.rows(),
                                      d.c_tile.cols(), d.c_tile.ld());
      copy_tile(d.c_tile, d.result.block(0, 0, d.task.cm, d.task.cn));
      d.result = Matrix{};
    }
    commit(d.tile);
  };

  // -- main loop -------------------------------------------------------------
  while (committed < n_tasks) {
    trip(fault::KillPoint::Chain);
    if (killed_now()) break;  // fail-stop at a task boundary: drain below
    // Top up the issue window (skipping tasks stolen away).
    while (inflight.size() < window && next < n_tasks) {
      const std::uint64_t add = issue_cost(next);
      if (opt.max_buffer_bytes > 0 &&
          live_bytes + add > opt.max_buffer_bytes) {
        relieve_budget(next, add);
        if (live_bytes + add > opt.max_buffer_bytes && !inflight.empty())
          break;  // retry once something commits
      }
      issue(next);
      ++next;
    }
    if (killed_now()) break;

    // Candidate heads: for every tile, the next uncommitted product — an
    // own issued task, a pending/finished handback, or not yet issued.
    std::ptrdiff_t best_own = -1;
    double best_ready = 0.0;
    for (const std::size_t idx : inflight) {
      if (task_pos[idx] !=
          board->commits[static_cast<std::size_t>(task_tile[idx])])
        continue;  // behind an uncommitted predecessor (possibly stolen)
      const double r = ready_estimate(idx);
      if (best_own < 0 || r < best_ready) {
        best_own = static_cast<std::ptrdiff_t>(idx);
        best_ready = r;
      }
    }
    // Finished handbacks at chain heads: one published by my clock commits
    // right away; one published in my virtual future waits behind every
    // runnable own head.  That keeps the horizon sound: each head it was
    // raised to executes before such a handback commits, so an admitted
    // steal's publish is already in the past by then.
    const double now = me.clock().now();
    StolenTask* ready_hb = nullptr;
    StolenTask* late_hb = nullptr;
    bool pending_hb = false;
    {
      std::lock_guard<std::mutex> lk(dom.mu);
      board->horizon =
          std::max(board->horizon, best_own >= 0 ? best_ready : now);
      for (int tile = 0; tile < n_tiles; ++tile) {
        const auto& chain = tile_tasks[static_cast<std::size_t>(tile)];
        const int pos = board->commits[static_cast<std::size_t>(tile)];
        if (static_cast<std::size_t>(pos) >= chain.size()) continue;
        const std::size_t head = chain[static_cast<std::size_t>(pos)];
        const std::ptrdiff_t di = desc_of_task[head];
        if (di < 0) continue;
        StolenTask& d = board->descs[static_cast<std::size_t>(di)];
        if (d.thief < 0 || d.thief == me.id()) continue;
        if (!d.done) {
          pending_hb = true;
        } else if (d.publish_vt <= now) {
          ready_hb = &d;
          break;
        } else if (late_hb == nullptr ||
                   d.publish_vt < late_hb->publish_vt) {
          late_hb = &d;
        }
      }
    }

    // Steal when idle, or when the best own candidate's operands are so
    // far in the virtual future that a whole stolen product fits in the
    // gap (the completion is known at issue time, so this is a real gap,
    // not a guess).
    const bool idle =
        best_own < 0 && ready_hb == nullptr && late_hb == nullptr;
    const bool far_head =
        best_own >= 0 &&
        best_ready >
            now + mm.dgemm.time(tasks[static_cast<std::size_t>(best_own)].cm,
                                tasks[static_cast<std::size_t>(best_own)].cn,
                                tasks[static_cast<std::size_t>(best_own)].kk);
    if ((idle || far_head) && try_steal()) continue;

    if (ready_hb != nullptr) {
      handback(*ready_hb);
      continue;
    }
    if (best_own >= 0) {
      execute(static_cast<std::size_t>(best_own));
      continue;
    }
    if (late_hb != nullptr) {
      handback(*late_hb);
      continue;
    }
    if (pending_hb) {
      // Nothing to run until a thief publishes; park on the domain cv.
      // Only current chain heads count: `done` stays true after a handback
      // commits, so scanning all descs would wake on stale completions and
      // busy-spin.  Heads are stable while we sleep (only our own commits
      // advance them), so the one transition to wait for is a pending
      // head's thief publishing.
      std::unique_lock<std::mutex> lk(dom.mu);
      park_until(lk, dom.cv, [&] {
        if (me.team().aborted() || killed_now()) return true;
        for (int tile = 0; tile < n_tiles; ++tile) {
          const auto& chain = tile_tasks[static_cast<std::size_t>(tile)];
          const int pos = board->commits[static_cast<std::size_t>(tile)];
          if (static_cast<std::size_t>(pos) >= chain.size()) continue;
          const std::ptrdiff_t di =
              desc_of_task[chain[static_cast<std::size_t>(pos)]];
          if (di < 0) continue;
          const StolenTask& d = board->descs[static_cast<std::size_t>(di)];
          if (d.thief >= 0 && d.thief != me.id() && d.done) return true;
        }
        return false;
      });
      if (me.team().aborted())
        throw Error("engine: team aborted waiting for a handback");
      continue;
    }
    SRUMMA_ASSERT(false, "engine: no runnable task and nothing in flight");
  }

  // Own work done: keep stealing from domain mates while admission allows.
  // (try_steal refuses immediately once this domain is killed.)
  while (try_steal()) {
  }

  if (killed_now()) {
    // Zombie drain: complete in-flight handles and release cache refs so
    // the domain's cache/checker state stays balanced; committed products
    // stay committed (the ledger counts them once on this rank), and the
    // uncommitted remainder is adopted by survivors from the replicas.
    for (Slot& s : slots)
      if (s.mat != nullptr) drain(me, *s.mat, s.st);
    dom.cv.notify_all();  // wake any mate still parked on this domain's cv
  }

  me.trace().buffer_bytes_peak =
      std::max(me.trace().buffer_bytes_peak, peak_bytes);

  // With a kill configured, keep the domain's entries warm through the
  // close: RecoveryGuard::run (which always follows run_plan then) reopens
  // the epoch as a continuation of this one — A/B stay read-only until the
  // result is collected — so adoption replays panels from cache instead of
  // refetching them.  kill_enabled() is rank-uniform; the tripped state is
  // not yet, so it must not steer the drop.
  cache_epoch.close(me, /*keep_warm=*/kill_active);
}

}  // namespace srumma::engine
