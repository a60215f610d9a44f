#include "core/srumma.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "engine/engine.hpp"
#include "engine/operand.hpp"
#include "engine/recovery.hpp"
#include "fault/fault_plane.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace srumma {

namespace {

using engine::OperandState;

// The paper's static ordered pipeline (Fig. 3): task t waits on the fetches
// issued for it `lookahead` iterations earlier and computes in plan order.
// The per-task steps (acquire, settle, multiply) are the engine's
// (engine/operand.*), so both executors fetch, re-arm and multiply alike.
// The operand pools `a_state` and `b_state` are the caller's, so their
// buffers outlive the multiply's closing barriers.
void run_pipeline(Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c,
                  const SrummaOptions& opt, int lookahead, const TaskPlan& plan,
                  std::vector<OperandState>& a_state,
                  std::vector<OperandState>& b_state) {
  const std::vector<Task>& tasks = plan.tasks;

  // Pipeline state (the paper's B1/B2 double buffer, generalized to a
  // prefetch depth of `lookahead`).  B patches are unique per task, so a
  // (lookahead+1)-deep rotation is safe: task t's B slot is not rewritten
  // before compute(t).  A patches may be *reused* by several in-flight
  // tasks (Section 3.1's locality consideration), so A states are evicted
  // by last-user age instead of rotation: a pool of lookahead+2 states
  // always contains one whose readers have all been computed.  A failed
  // state is re-armed in place by the first consumer that settles it, so
  // its later A-reuse consumers read the refetched bytes.
  const std::size_t n_slots = static_cast<std::size_t>(lookahead) + 1;
  a_state.resize(n_slots + 1);
  b_state.resize(n_slots);
  std::vector<std::size_t> slot_a(n_slots, 0);

  engine::ReissueBudget budget{
      4 * tasks.size() + 16,
      "srumma: operand reissue budget exhausted — transfers keep failing "
      "after RMA retries"};

  // Fail-stop hooks: a configured kill trips at this rank's next prefetch
  // issue or chain (task) advance; once the domain is killed the rank
  // becomes a zombie — it stops issuing and executing, drains what is in
  // flight, and keeps joining collectives.
  fault::FaultPlane* fp = me.team().faults();
  const bool kill_active = fp != nullptr && fp->kill_enabled();
  const auto killed_now = [&] {
    return kill_active && fp->domain_killed(me.domain());
  };

  auto issue = [&](std::size_t t_idx) {
    if (kill_active) {
      fp->reach_kill_point(fault::KillPoint::Prefetch, me.domain(),
                           me.clock().now());
      if (killed_now()) return;  // fail-stop: no new fetches
    }
    const Task& t = tasks[t_idx];
    const std::size_t slot = t_idx % n_slots;
    if (trace::Tracer* tr = me.tracer())
      tr->instant(me.id(), trace::Phase::TaskIssue, me.clock().now(), t_idx);
    // A: reuse a live matching patch if the policy allows.
    std::ptrdiff_t ai = -1;
    if (opt.ordering.a_reuse) {
      for (std::size_t i = 0; i < a_state.size(); ++i) {
        if (a_state[i].matches(t.a_i0, t.a_j0, t.a_m, t.a_n)) {
          ai = static_cast<std::ptrdiff_t>(i);
          break;
        }
      }
    }
    if (ai < 0) {
      // Evict the state whose last reader is oldest; with pool size
      // lookahead+2 it is guaranteed to have been computed already.
      ai = 0;
      for (std::size_t i = 1; i < a_state.size(); ++i) {
        if (a_state[i].last_user < a_state[static_cast<std::size_t>(ai)].last_user)
          ai = static_cast<std::ptrdiff_t>(i);
      }
      // issue(t_idx) runs in iteration max(0, t_idx - lookahead); every
      // task below that index has been computed, so its buffers are free.
      const std::ptrdiff_t compute_floor =
          std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(t_idx) -
                                          lookahead);
      SRUMMA_ASSERT(a_state[static_cast<std::size_t>(ai)].last_user <
                        compute_floor,
                    "srumma pipeline: evicting an A buffer still in flight");
      engine::acquire(me, a, t.a_i0, t.a_j0, t.a_m, t.a_n, opt.shm_flavor,
                      a_state[static_cast<std::size_t>(ai)]);
    }
    a_state[static_cast<std::size_t>(ai)].last_user =
        static_cast<std::ptrdiff_t>(t_idx);
    slot_a[slot] = static_cast<std::size_t>(ai);
    engine::acquire(me, b, t.b_i0, t.b_j0, t.b_m, t.b_n, opt.shm_flavor,
                    b_state[slot]);
  };

  std::size_t next_issue = 0;
  for (std::size_t t_idx = 0; t_idx < tasks.size(); ++t_idx) {
    if (kill_active) {
      fp->reach_kill_point(fault::KillPoint::Chain, me.domain(),
                           me.clock().now());
      if (killed_now()) break;  // fail-stop at a task boundary: drain below
    }
    // Keep up to `lookahead` tasks in flight beyond the current one.
    while (next_issue < tasks.size() &&
           next_issue <= t_idx + static_cast<std::size_t>(lookahead)) {
      issue(next_issue++);
    }
    // A Prefetch kill trips inside issue(): this task's operands were never
    // fetched, so bail to the drain rather than compute on empty slots.
    if (killed_now()) break;
    const Task& t = tasks[t_idx];
    // Operand settle + dgemm for this task (issue() above is outside:
    // issued fetches belong to the async comm tracks).
    trace::SpanGuard task_span(me.tracer(), me.id(), trace::Phase::Task,
                               me.clock(), t_idx);
    const std::size_t slot = t_idx % n_slots;
    OperandState& as = a_state[slot_a[slot]];
    OperandState& bs = b_state[slot];
    if (!engine::settle(me, a, b, t, opt, as, bs, budget, t_idx)) break;
    MatrixView c_tile;
    if (!c.phantom()) c_tile = c.local_view(me).block(t.ci, t.cj, t.cm, t.cn);
    engine::multiply(me, opt, a, b, &c, t, as, bs, c_tile);
  }

  if (killed_now()) {
    // Zombie drain: tasks this rank never committed are adopted by
    // survivors from the buddy replicas in the recovery phase.
    for (OperandState& st : a_state) engine::drain(me, a, st);
    for (OperandState& st : b_state) engine::drain(me, b, st);
  }

  // Pipeline buffer footprint: what the copy-path acquires grew the
  // operand states to (zero when every task ran on direct views).
  {
    std::uint64_t bytes = 0;
    for (const OperandState& st : a_state) bytes += st.cap_bytes;
    for (const OperandState& st : b_state) bytes += st.cap_bytes;
    // High-water mark: never let a later, smaller multiply erase the peak
    // an earlier one established on this rank.
    me.trace().buffer_bytes_peak = std::max(me.trace().buffer_bytes_peak, bytes);
  }
}

}  // namespace

MultiplyResult srumma_multiply(Rank& me, DistMatrix& a, DistMatrix& b,
                               DistMatrix& c, const SrummaOptions& opt) {
  SRUMMA_REQUIRE(a.phantom() == c.phantom() && b.phantom() == c.phantom(),
                 "srumma: phantom flags of A, B, C must agree");

  me.barrier();
  const double start_vt = me.clock().now();
  const TraceCounters my_start = me.trace();
  // Entry barrier to exit barrier, including collect_result's reduction.
  trace::SpanGuard multiply_span(me.tracer(), me.id(), trace::Phase::Multiply,
                                 me.clock());

  // Auto-tuning (k_chunk, lookahead, buffer-budget shrink) lives in
  // tune_options so the static analyzer resolves the exact executor
  // configuration a run would use (src/analysis, docs/ANALYSIS.md).  Both
  // steps are pure in their inputs, so a repeated multiply into this C
  // takes them from its memo.
  const PlanMemo::Key key{me.id(), a.layout(), b.layout(), opt};
  std::shared_ptr<const PlanMemo> memo = c.plan_memo();
  if (!memo || memo->key != key) {
    const SrummaOptions fresh = tune_options(me.id(), me.machine(),
                                             a.layout(), b.layout(),
                                             c.layout(), opt);
    memo = std::make_shared<const PlanMemo>(
        PlanMemo{key, fresh, build_task_plan(me, a, b, c, fresh)});
    c.plan_memo() = memo;
  }
  const SrummaOptions& tuned = memo->tuned;
  const TaskPlan& plan = memo->plan;
  const int lookahead = opt.nonblocking ? tuned.lookahead : 0;

  // Apply beta to my local C block once, before accumulation.
  if (!c.phantom() && opt.beta != 1.0) {
    MatrixView mine = c.local_view(me);
    if (opt.beta == 0.0) {
      mine.fill(0.0);
    } else {
      for (index_t j = 0; j < mine.cols(); ++j)
        for (index_t i = 0; i < mine.rows(); ++i) mine(i, j) *= opt.beta;
    }
  }

  SRUMMA_REQUIRE(tuned.lookahead >= 1 && tuned.lookahead <= 64,
                 "srumma: lookahead must be in [1, 64]");

  // Permanent-failure preparation (docs/FAULTS.md §7): when a kill is
  // configured, mirror the operand panels and the beta-applied C onto each
  // rank's buddy domain BEFORE arming the kill hooks — a domain can then
  // never die with unrecoverable state.  Its plan needs no record: any
  // survivor rebuilds it from the layouts.
  fault::FaultPlane* fp = me.team().faults();
  const bool kill_active = fp != nullptr && fp->kill_enabled();
  if (kill_active) {
    engine::replicate_operands(me, a, b, c, /*mirror_c=*/tuned.beta != 0.0);
    fp->arm_kills();
  }

  // Executor dispatch: the dependency-driven engine replaces the static
  // pipeline with per-task operand ownership and out-of-order execution
  // across C tiles (src/engine, docs/ENGINE.md).  Both executors produce
  // bitwise-identical C.  Every operand buffer is freed only after
  // collect_result's barriers: the happens-before race detector
  // (docs/ANALYSIS.md) keys local buffers by address, and a buffer freed
  // earlier could be reallocated to another rank whose fetches into it no
  // barrier orders after ours.
  std::vector<OperandState> a_state;
  std::vector<OperandState> b_state;
  engine::OperandPool engine_operands;
  // One cooperative-cache epoch around either executor; the entry barrier
  // (or replication's publication barrier) is the inter-multiply separator
  // it requires.  The last rank out invalidates the domain's entries (A
  // and B are only guaranteed read-only inside this multiply), except
  // with a kill configured: recovery's epoch continues the same read-only
  // quiescent period, and adoption replays the panels survivors already
  // fetched.  (kill_active is rank-uniform; whether the kill TRIPPED is
  // not yet.)
  engine::CacheEpoch cache_epoch(
      me, a, b, engine::executor_cache_cap(me.machine(), plan, lookahead));
  if (engine::selected(tuned.engine)) {
    MatrixView mine;
    if (!c.phantom()) mine = c.local_view(me);
    me.trace().engine_tasks += engine::run_plan(
        me, a, b, mine, &c, tuned, lookahead, plan, engine_operands);
  } else {
    run_pipeline(me, a, b, c, tuned, lookahead, plan, a_state, b_state);
  }
  cache_epoch.close(me, /*keep_warm=*/kill_active);
  if (kill_active) engine::recover(me, a, b, c, opt, engine_operands);

  return collect_result(me, start_vt, my_start,
                        gemm_flops(static_cast<double>(c.rows()),
                                   static_cast<double>(c.cols()),
                                   static_cast<double>(plan.k_total)));
}

}  // namespace srumma
