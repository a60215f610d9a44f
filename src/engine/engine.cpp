#include "engine/engine.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
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

std::vector<std::uint8_t> later_reads(const TaskPlan& plan) {
  const std::vector<Task>& tasks = plan.tasks;
  std::vector<std::uint8_t> later(tasks.size(), 0);
  using PatchKey = std::array<index_t, 4>;
  std::set<PatchKey> a_seen;
  std::set<PatchKey> b_seen;
  for (std::size_t i = tasks.size(); i-- > 0;) {
    const Task& t = tasks[i];
    if (!a_seen.insert(PatchKey{t.a_i0, t.a_j0, t.a_m, t.a_n}).second)
      later[i] |= kLaterA;
    if (!b_seen.insert(PatchKey{t.b_i0, t.b_j0, t.b_m, t.b_n}).second)
      later[i] |= kLaterB;
  }
  return later;
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
  const std::vector<Task>& tasks = plan.tasks;
  const std::size_t n_tasks = tasks.size();
  const std::size_t window = static_cast<std::size_t>(lookahead) + 1;

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

  // Slots are shared under the A-reuse policy only: with it off every task
  // fetches its own operands, the ablation of paper Section 3.1.  The plan
  // lifetime needs to know which patches a later task reads again; the
  // window lifetime tabulates nothing.
  const bool share = opt.ordering.a_reuse;
  std::vector<std::uint8_t> later;
  if (share && selected(opt.engine)) later = later_reads(plan);

  // Operand slots: the live ones, and released ones awaiting reuse.  Each
  // issued task reads one A slot and one B slot, recorded in a ring indexed
  // by plan index mod window (at most `window` tasks are issued and
  // uncommitted at once).
  struct Slot {
    OperandState st;
    bool is_a = false;
    bool live = false;     // holds a patch
    bool settled = false;  // its first reader waited, verified, finished it
    bool keep = false;     // plan lifetime: a later task reads it
    int readers = 0;       // issued, uncommitted tasks that read it
  };
  std::vector<Slot> slots;
  slots.reserve(2 * window + 2);
  std::vector<std::array<std::size_t, 2>> held(window);
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;
  // One re-arm budget for the whole plan.
  ReissueBudget budget{4 * n_tasks + 16,
                       "srumma: operand reissue budget exhausted — transfers "
                       "keep failing after RMA retries"};

  const auto mat_of = [&](const Slot& s) -> DistMatrix& {
    return s.is_a ? a : b;
  };
  // The live slot holding task t's A (resp. B) patch, or -1.
  const auto find = [&](bool is_a, const Task& t) -> std::ptrdiff_t {
    if (!share) return -1;
    const index_t i0 = is_a ? t.a_i0 : t.b_i0;
    const index_t j0 = is_a ? t.a_j0 : t.b_j0;
    const index_t pm = is_a ? t.a_m : t.b_m;
    const index_t pn = is_a ? t.a_n : t.b_n;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& s = slots[i];
      if (s.live && s.is_a == is_a && s.st.i0 == i0 && s.st.j0 == j0 &&
          s.st.m == pm && s.st.n == pn)
        return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };
  // Fetch task t's patch into slot `s`: a fresh slot, or a failed one being
  // re-armed in place.  A slot without a buffer draws one from the spares;
  // a slot that turned out direct hands it straight back.
  const auto fetch = [&](Slot& s, const Task& t) {
    OperandState& st = s.st;
    const std::uint64_t before = st.cap_bytes;
    const index_t pm = s.is_a ? t.a_m : t.b_m;
    const index_t pn = s.is_a ? t.a_n : t.b_n;
    if (st.buf.empty()) take_spare(pool.spare, st.buf, pm, pn);
    if (s.is_a) {
      acquire(me, a, t.a_i0, t.a_j0, pm, pn, opt.shm_flavor, st);
    } else {
      acquire(me, b, t.b_i0, t.b_j0, pm, pn, opt.shm_flavor, st);
    }
    if (st.direct && !st.buf.empty())
      pool.spare.push_back(std::exchange(st.buf, Matrix{}));
    live_bytes += st.cap_bytes - before;
    peak_bytes = std::max(peak_bytes, live_bytes);
    s.live = true;
    s.settled = false;
  };
  const auto fetch_new = [&](bool is_a, const Task& t) {
    std::size_t i = 0;
    while (i < slots.size() && slots[i].live) ++i;
    if (i == slots.size()) slots.emplace_back();
    slots[i].is_a = is_a;
    fetch(slots[i], t);
    return i;
  };
  // Drop a slot no issued task reads; its buffer joins the spares, and the
  // next fetch into it starts from an empty capacity.
  const auto release = [&](Slot& s) {
    SRUMMA_ASSERT(s.readers == 0 && !s.st.cache_ref.active(),
                  "engine: releasing an operand slot still in use");
    live_bytes -= s.st.cap_bytes;
    s.st.cap_bytes = 0;
    if (!s.st.buf.empty())
      pool.spare.push_back(std::exchange(s.st.buf, Matrix{}));
    s.live = false;
    s.keep = false;
  };
  // Make the head task's operands consumable.  Each slot is settled once,
  // by its first reader; a failed fetch is re-armed in place, so every
  // reader of a shared slot reads the refetched bytes.  Returns false, with
  // nothing re-armed, once this rank's domain is killed.
  const auto settle_head = [&](std::size_t idx) {
    const Task& t = tasks[idx];
    Slot& sa = slots[held[idx % window][0]];
    Slot& sb = slots[held[idx % window][1]];
    for (;;) {
      for (Slot* s : {&sa, &sb}) {
        if (s->settled) continue;
        settle(me, mat_of(*s), s->st, opt.verify_checksums);
        s->settled = true;
      }
      if (!sa.st.failed && !sb.st.failed) return true;
      if (killed_now()) return false;
      budget.charge(me, idx);
      if (sa.st.failed) fetch(sa, t);
      if (sb.st.failed) fetch(sb, t);
    }
  };

  std::size_t next = 0;
  std::size_t committed = 0;
  for (std::size_t head = 0; head < n_tasks; ++head) {
    trip(fault::KillPoint::Chain);
    if (killed_now()) break;  // fail-stop at a task boundary: drain below
    // Top up the issue window to the head plus `lookahead` tasks.
    while (next < n_tasks &&
           next <= head + static_cast<std::size_t>(lookahead)) {
      const Task& t = tasks[next];
      std::ptrdiff_t sa = find(true, t);
      std::ptrdiff_t sb = find(false, t);
      // Release the slots no issued task reads, except the two this task
      // shares.  Releasing only here, just before a fetch, lets the next
      // task share a patch the previous one read, whatever the lookahead.
      const auto idle = [&](std::size_t i) {
        const auto si = static_cast<std::ptrdiff_t>(i);
        return slots[i].live && slots[i].readers == 0 && si != sa && si != sb;
      };
      for (std::size_t i = 0; i < slots.size(); ++i)
        if (idle(i) && !slots[i].keep) release(slots[i]);
      if (opt.max_buffer_bytes > 0) {
        // Over budget, also release the slots the plan lifetime holds for a
        // later reader (which then refetches); still over, hold this issue
        // back until the head commits.
        std::uint64_t add = 0;
        if (sa < 0) add += static_cast<std::uint64_t>(t.a_m) *
                           static_cast<std::uint64_t>(t.a_n) * sizeof(double);
        if (sb < 0) add += static_cast<std::uint64_t>(t.b_m) *
                           static_cast<std::uint64_t>(t.b_n) * sizeof(double);
        const auto over = [&] {
          return live_bytes + add > opt.max_buffer_bytes;
        };
        for (std::size_t i = 0; i < slots.size() && over(); ++i)
          if (idle(i) && slots[i].st.cap_bytes > 0) release(slots[i]);
        if (over() && next > head) break;
      }
      trip(fault::KillPoint::Prefetch);
      if (killed_now()) break;  // fail-stop: no new fetches
      if (tr != nullptr)
        tr->instant(me.id(), trace::Phase::TaskIssue, me.clock().now(), next);
      if (sa < 0) sa = static_cast<std::ptrdiff_t>(fetch_new(true, t));
      if (sb < 0) sb = static_cast<std::ptrdiff_t>(fetch_new(false, t));
      std::array<std::size_t, 2>& h = held[next % window];
      h = {static_cast<std::size_t>(sa), static_cast<std::size_t>(sb)};
      for (const std::size_t si : h) slots[si].readers += 1;
      ++next;
    }
    if (killed_now()) break;
    const Task& t = tasks[head];
    trace::SpanGuard task_span(tr, me.id(), trace::Phase::Task, me.clock(),
                               head);
    if (!settle_head(head)) break;
    const std::array<std::size_t, 2>& h = held[head % window];
    MatrixView c_tile;
    if (!a.phantom()) c_tile = c_dst.block(t.ci, t.cj, t.cm, t.cn);
    multiply(me, opt, a, b, c_decl, t, slots[h[0]].st, slots[h[1]].st,
             c_tile);
    ++committed;
    const std::uint8_t again = later.empty() ? 0 : later[head];
    slots[h[0]].readers -= 1;
    slots[h[0]].keep = (again & kLaterA) != 0;
    slots[h[1]].readers -= 1;
    slots[h[1]].keep = (again & kLaterB) != 0;
  }

  // Zombie drain: complete in-flight handles and release cache refs so the
  // domain's cache/checker state stays balanced; committed products stay
  // committed (the ledger counts them once on this rank), and the
  // uncommitted remainder is adopted by survivors from the replicas.
  const bool zombie = killed_now();
  for (Slot& s : slots) {
    if (zombie && s.live) drain(me, mat_of(s), s.st);
    if (!s.st.buf.empty()) pool.spare.push_back(std::move(s.st.buf));
  }

  me.trace().buffer_bytes_peak =
      std::max(me.trace().buffer_bytes_peak, peak_bytes);
  return committed;
}

}  // namespace srumma::engine
