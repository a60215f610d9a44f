#include "engine/engine.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <utility>
#include <vector>

#include "fault/fault_plane.hpp"
#include "runtime/team.hpp"
#include "trace/tracer.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace srumma::engine {

namespace {

// Move a spare buffer of at least m x n into the empty `buf` (left empty
// when none fits, so acquire allocates one).
void take_spare(std::vector<Matrix>& spare, Matrix& buf, index_t m,
                index_t n) {
  for (auto it = spare.begin(); it != spare.end(); ++it) {
    if (it->rows() >= m && it->cols() >= n) {
      buf = std::move(*it);
      spare.erase(it);
      return;
    }
  }
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

bool selected(EngineMode mode) {
  if (mode == EngineMode::Auto)
    return env::flag("SRUMMA_ENGINE").value_or(false);
  return mode == EngineMode::On;
}

std::size_t run_plan(Rank& me, DistMatrix& a, DistMatrix& b, MatrixView c_dst,
                     DistMatrix* c_decl, const SrummaOptions& opt,
                     int lookahead, const TaskPlan& plan, OperandPool& pool) {
  trace::Tracer* tr = me.tracer();
  const bool phantom = a.phantom();
  const std::vector<Task>& tasks = plan.tasks;
  const std::size_t n_tasks = tasks.size();

  // Fail-stop hooks: a configured kill trips at this rank's next prefetch
  // issue or chain advance.  Once killed the rank is a zombie: it bails at
  // a task boundary, drains in-flight state and keeps joining collectives.
  fault::FaultPlane* fp = me.team().faults();
  const bool kill_active = fp != nullptr && fp->kill_enabled();
  const auto killed_now = [&] {
    return kill_active && fp->domain_killed(me.domain());
  };
  const auto trip = [&](fault::KillPoint p) {
    if (kill_active) fp->reach_kill_point(p, me.domain(), me.clock().now());
  };

  // -- task graph setup ------------------------------------------------------
  // Group tasks by C tile; each tile's products commit in plan order (the
  // bitwise-identity invariant), execution order across tiles is free.
  // chain_layout is shared with the static analyzer, which certifies these
  // chains before any run (docs/ANALYSIS.md).
  const ChainLayout chains = chain_layout(plan);
  const std::vector<int>& task_tile = chains.task_tile;
  const std::vector<int>& task_pos = chains.task_pos;

  // Operand slots, deduplicated by patch identity: the task graph hands
  // each distinct patch one owner, shared by every consumer and released
  // when the last consumer commits.  (The a_reuse ordering policy still
  // shapes the plan order — and thus how long a patch stays live — but
  // dedup here is structural, not an ordering accident.)  Each slot's
  // OperandState is appended to `pool`, which outlives this call.
  struct Slot {
    OperandState* st = nullptr;
    DistMatrix* mat = nullptr;  // which matrix the slot's patch is of
    int refs = 0;      // consumers not yet committed
    int inflight = 0;  // consumers issued and not yet committed
    bool issued = false;
    bool waited = false;
    double ready_vt = 0.0;
  };
  std::vector<Slot> slots;
  using PatchKey = std::array<index_t, 4>;
  std::map<PatchKey, int> a_slot_of;
  std::map<PatchKey, int> b_slot_of;
  std::vector<int> a_slot(n_tasks);
  std::vector<int> b_slot(n_tasks);
  const auto slot_for = [&](std::map<PatchKey, int>& m, DistMatrix& mat,
                            index_t i0, index_t j0, index_t pm, index_t pn) {
    const auto [it, fresh] =
        m.try_emplace(PatchKey{i0, j0, pm, pn}, static_cast<int>(slots.size()));
    if (fresh) slots.push_back(Slot{nullptr, &mat});
    return it->second;
  };
  for (std::size_t i = 0; i < n_tasks; ++i) {
    const Task& t = tasks[i];
    a_slot[i] = slot_for(a_slot_of, a, t.a_i0, t.a_j0, t.a_m, t.a_n);
    b_slot[i] = slot_for(b_slot_of, b, t.b_i0, t.b_j0, t.b_m, t.b_n);
    slots[static_cast<std::size_t>(a_slot[i])].refs += 1;
    slots[static_cast<std::size_t>(b_slot[i])].refs += 1;
  }
  const std::size_t base = pool.states.size();
  pool.states.resize(base + slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i)
    slots[i].st = &pool.states[base + i];

  // -- executor state --------------------------------------------------------
  // Issue window: how many tasks may hold operand slots at once.  The
  // pipeline's lookahead bounds it so both executors run under comparable
  // buffer budgets; blocking mode (lookahead 0) degenerates to
  // issue-one-execute-one.
  const std::size_t window = static_cast<std::size_t>(lookahead) + 1;
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;
  // One re-arm budget for the whole plan.
  ReissueBudget budget{4 * n_tasks + 16,
                       "engine: operand reissue budget exhausted — transfers "
                       "keep failing after RMA retries"};

  const auto patch_bytes = [](const Task& t, bool is_a) {
    return is_a ? static_cast<std::uint64_t>(t.a_m) *
                      static_cast<std::uint64_t>(t.a_n) * sizeof(double)
                : static_cast<std::uint64_t>(t.b_m) *
                      static_cast<std::uint64_t>(t.b_n) * sizeof(double);
  };

  // A slot without a buffer draws one from the spares a released slot left
  // behind; a slot that turned out direct hands it straight back.
  const auto acquire_slot = [&](DistMatrix& mat, Slot& s, const Task& t,
                                bool is_a) {
    OperandState& st = *s.st;
    const std::uint64_t before = st.cap_bytes;
    const index_t pm = is_a ? t.a_m : t.b_m;
    const index_t pn = is_a ? t.a_n : t.b_n;
    if (st.buf.empty()) take_spare(pool.spare, st.buf, pm, pn);
    if (is_a) {
      acquire(me, mat, t.a_i0, t.a_j0, pm, pn, opt.shm_flavor, st);
    } else {
      acquire(me, mat, t.b_i0, t.b_j0, pm, pn, opt.shm_flavor, st);
    }
    if (st.direct && !st.buf.empty())
      pool.spare.push_back(std::exchange(st.buf, Matrix{}));
    live_bytes += st.cap_bytes - before;
    peak_bytes = std::max(peak_bytes, live_bytes);
    s.issued = true;
    s.waited = false;
  };

  // Drop a slot (budget pressure, or last consumer gone); its buffer joins
  // the spares.  Only legal once no issued consumer depends on it; a later
  // consumer simply re-acquires.
  const auto release_slot = [&](Slot& s) {
    SRUMMA_ASSERT(s.inflight == 0 && !s.st->cache_ref.active(),
                  "engine: releasing an operand slot still in use");
    live_bytes -= s.st->cap_bytes;
    if (!s.st->buf.empty()) pool.spare.push_back(std::move(s.st->buf));
    *s.st = OperandState{};
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
    OperandState& st = *s.st;
    const bool fetched = st.handle.pending;
    if (fetched && !mat.try_wait(me, st.handle)) st.failed = true;
    if (opt.verify_checksums && fetched) verify_operand(me, mat, st);
    finish_cache(me, mat, st, fetched, opt.verify_checksums);
    s.waited = true;
    s.ready_vt = me.clock().now();
  };

  std::vector<int> commits(static_cast<std::size_t>(chains.tiles()), 0);
  std::size_t committed = 0;          // products landed in c_dst
  std::vector<std::size_t> inflight;  // issued, uncommitted tasks
  std::size_t next = 0;               // next plan index to issue

  // Earliest virtual time the task's operands can all be consumed —
  // known at issue time because RMA completions are computed when the get
  // is posted.
  const auto ready_estimate = [&](std::size_t idx) {
    double r = me.clock().now();
    for (const int si : {a_slot[idx], b_slot[idx]}) {
      const Slot& s = slots[static_cast<std::size_t>(si)];
      if (s.waited) {
        r = std::max(r, s.ready_vt);
      } else if (s.st->handle.pending) {
        r = std::max(r, s.st->handle.completion());
      }
    }
    return r;
  };

  // Issue one task: fetch whatever operand slots are not already live.
  const auto issue = [&](std::size_t idx) {
    trip(fault::KillPoint::Prefetch);
    if (killed_now()) return;  // fail-stop: no new fetches
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
      if (s.issued && s.waited && s.inflight == 0 && s.st->cap_bytes > 0)
        release_slot(s);
    }
  };

  // Execute one head task.  Returns true when the product committed, false
  // when a failed operand was re-armed in place (the task keeps its
  // position; fresh fetches draw fresh fault decisions).
  const auto execute = [&](std::size_t idx) -> bool {
    const Task& t = tasks[idx];
    trace::SpanGuard task_span(tr, me.id(), trace::Phase::Task, me.clock(),
                               idx);
    Slot& sa = slots[static_cast<std::size_t>(a_slot[idx])];
    Slot& sb = slots[static_cast<std::size_t>(b_slot[idx])];
    wait_slot(a, sa);
    wait_slot(b, sb);
    if (sa.st->failed || sb.st->failed) {
      budget.charge(me, idx);
      if (sa.st->failed) acquire_slot(a, sa, t, true);
      if (sb.st->failed) acquire_slot(b, sb, t, false);
      return false;
    }
    if (tr != nullptr)
      tr->instant(me.id(), trace::Phase::TaskReady, me.clock().now(), idx);
    MatrixView c_tile;
    if (!phantom) c_tile = c_dst.block(t.ci, t.cj, t.cm, t.cn);
    multiply(me, opt, a, b, c_decl, t, *sa.st, *sb.st, c_tile);
    commits[static_cast<std::size_t>(task_tile[idx])] += 1;
    ++committed;
    sa.inflight -= 1;
    sb.inflight -= 1;
    deref_slot(a_slot[idx]);
    deref_slot(b_slot[idx]);
    inflight.erase(std::find(inflight.begin(), inflight.end(), idx));
    return true;
  };

  // -- main loop -------------------------------------------------------------
  // Some head is always runnable: every task below the earliest uncommitted
  // plan index has committed, so that index has been issued and heads its
  // tile's chain (docs/ANALYSIS.md §2).
  while (committed < n_tasks) {
    trip(fault::KillPoint::Chain);
    if (killed_now()) break;  // fail-stop at a task boundary: drain below
    // Top up the issue window.
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

    // Run the chain head whose operands land earliest.
    std::ptrdiff_t best = -1;
    double best_ready = 0.0;
    for (const std::size_t idx : inflight) {
      if (task_pos[idx] != commits[static_cast<std::size_t>(task_tile[idx])])
        continue;  // behind an uncommitted predecessor
      const double r = ready_estimate(idx);
      if (best < 0 || r < best_ready) {
        best = static_cast<std::ptrdiff_t>(idx);
        best_ready = r;
      }
    }
    SRUMMA_ASSERT(best >= 0, "engine: no runnable task and nothing in flight");
    execute(static_cast<std::size_t>(best));
  }

  if (killed_now()) {
    // Zombie drain: complete in-flight handles and release cache refs so
    // the domain's cache/checker state stays balanced; committed products
    // stay committed (the ledger counts them once on this rank), and the
    // uncommitted remainder is adopted by survivors from the replicas.
    for (Slot& s : slots) drain(me, *s.mat, *s.st);
  }

  me.trace().buffer_bytes_peak =
      std::max(me.trace().buffer_bytes_peak, peak_bytes);
  return committed;
}

}  // namespace srumma::engine
