#include "core/srumma.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <optional>

#include "blas/gemm.hpp"
#include "cache/block_cache.hpp"
#include "engine/engine.hpp"
#include "engine/operand.hpp"
#include "engine/recovery.hpp"
#include "fault/fault_plane.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace srumma {

// Operand acquisition (direct view / nonblocking fetch / cache-cooperative
// fetch), checksum verification and the cache epilogue live in
// engine/operand.* so the static pipeline below and the dependency-driven
// engine (engine/engine.cpp) acquire operands identically.
using engine::OperandState;
using engine::acquire;
using engine::finish_cache;
using engine::verify_operand;

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
  // configuration a run would use (src/analysis, docs/ANALYSIS.md).
  const SrummaOptions tuned = tune_options(me.id(), me.machine(), layout_of(a),
                                           layout_of(b), layout_of(c), opt);

  TaskPlan plan = build_task_plan(me, a, b, c, tuned);
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
  // rank's buddy domain and deposit the plan for adoption BEFORE arming
  // the kill hooks — a domain can then never die with unrecoverable state.
  fault::FaultPlane* fp = me.team().faults();
  const bool kill_active = fp != nullptr && fp->kill_enabled();
  std::optional<engine::RecoveryGuard> recovery;
  if (kill_active) {
    recovery.emplace(me);
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
    RmaHandle ra = a.replicate_nb(me);
    RmaHandle rb = b.replicate_nb(me);
    RmaHandle rc = c.replicate_nb(me, /*mirror=*/tuned.beta != 0.0);
    a.replicate_finish(me, ra);
    b.replicate_finish(me, rb);
    c.replicate_finish(me, rc);
    me.barrier();
    recovery->deposit(me, plan, tuned);
    fp->arm_kills();
  }

  // Executor dispatch: the dependency-driven engine replaces the rest of
  // this function's static pipeline with per-task operand ownership,
  // out-of-order execution across C tiles and intra-domain work stealing
  // (src/engine, docs/ENGINE.md).  Both executors produce bitwise-identical
  // C; the engine's modeled timing may vary run to run.
  if (engine::selected(tuned.engine)) {
    engine::run_plan(me, a, b, c, tuned, lookahead, plan);
    if (recovery) recovery->run(me, a, b, c);
    const index_t em = c.rows();
    const index_t en = c.cols();
    return collect_result(me, start_vt, my_start,
                          gemm_flops(static_cast<double>(em),
                                     static_cast<double>(en),
                                     static_cast<double>(plan.k_total)));
  }

  // Pipeline state (the paper's B1/B2 double buffer, generalized to a
  // prefetch depth of `lookahead`).  B patches are unique per task, so a
  // (lookahead+1)-deep rotation is safe: task t's B slot is not rewritten
  // before compute(t).  A patches may be *reused* by several in-flight
  // tasks (Section 3.1's locality consideration), so A states are evicted
  // by last-user age instead of rotation: a pool of lookahead+2 states
  // always contains one whose readers have all been computed.
  const std::size_t n_slots = static_cast<std::size_t>(lookahead) + 1;
  std::vector<OperandState> a_state(n_slots + 1);
  std::vector<OperandState> b_state(n_slots);
  std::vector<std::size_t> slot_a(n_slots, 0);

  // Open the cooperative block cache for this multiply (the entry barrier
  // above is the inter-multiply separator begin_epoch requires).  The
  // default capacity covers the whole domain's pipeline footprint — every
  // mate's worst-case operand slots — so single-flight sharing is never
  // starved by its own working set.  A and B may in principle live on
  // different runtimes; open each distinct cache once.
  cache::BlockCacheSet* cache_sets[2] = {a.rma().block_cache(),
                                         b.rma().block_cache()};
  if (cache_sets[1] == cache_sets[0]) cache_sets[1] = nullptr;
  const std::uint64_t cache_default_cap =
      static_cast<std::uint64_t>(me.machine().domain_size()) *
      (2 * static_cast<std::uint64_t>(lookahead) + 3) *
      std::max(static_cast<std::uint64_t>(plan.max_a_m) *
                   static_cast<std::uint64_t>(plan.max_a_n),
               static_cast<std::uint64_t>(plan.max_b_m) *
                   static_cast<std::uint64_t>(plan.max_b_n)) *
      sizeof(double);
  for (cache::BlockCacheSet* cset : cache_sets)
    if (cset != nullptr) cset->begin_epoch(me, cache_default_cap);

  // Working list, moved out of the plan (the recovery deposit above took
  // its own copy): a task whose fetch exhausts its RMA retries is
  // re-enqueued at the tail (graceful degradation instead of aborting the
  // whole multiply), so the list can grow while we walk it.
  const std::size_t planned = plan.tasks.size();
  std::vector<Task> tasks = std::move(plan.tasks);
  const std::size_t requeue_cap = 4 * planned + 16;
  std::size_t requeues = 0;

  // Fail-stop hooks: a configured kill trips at this rank's next prefetch
  // issue or chain (task) advance; once the domain is killed the rank
  // becomes a zombie — it stops issuing and executing, drains what is in
  // flight, and keeps joining collectives.
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
    // Fetches issued past the original plan belong to requeued tail copies:
    // each one is an operand reissue (the engine's re-arm counts the same
    // way, so the recovery effort of the two executors is comparable).
    if (t_idx >= planned) me.trace().task_reissues += 1;
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
      acquire(me, a, t.a_i0, t.a_j0, t.a_m, t.a_n, opt.shm_flavor,
              a_state[static_cast<std::size_t>(ai)]);
    }
    a_state[static_cast<std::size_t>(ai)].last_user =
        static_cast<std::ptrdiff_t>(t_idx);
    slot_a[slot] = static_cast<std::size_t>(ai);
    acquire(me, b, t.b_i0, t.b_j0, t.b_m, t.b_n, opt.shm_flavor,
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
    // By value: a requeue below push_backs into `tasks`, which may
    // reallocate out from under a reference.
    const Task t = tasks[t_idx];
    // Operand wait + verify + dgemm for this task (issue() above is outside:
    // issued fetches belong to the async comm tracks).
    trace::SpanGuard task_span(me.tracer(), me.id(), trace::Phase::Task,
                               me.clock(), t_idx);
    const std::size_t slot = t_idx % n_slots;
    OperandState& as = a_state[slot_a[slot]];
    OperandState& bs = b_state[slot];
    const bool a_fetched = as.handle.pending;
    const bool b_fetched = bs.handle.pending;
    if (a_fetched && !a.try_wait(me, as.handle)) as.failed = true;
    if (b_fetched && !b.try_wait(me, bs.handle)) bs.failed = true;
    if (opt.verify_checksums) {
      // Only freshly completed fetches: a reused A patch was verified when
      // its first consumer waited on it, and the panels are read-only for
      // the rest of the multiply.
      if (a_fetched) verify_operand(me, a, as);
      if (b_fetched) verify_operand(me, b, bs);
    }
    finish_cache(me, a, as, a_fetched, opt.verify_checksums);
    finish_cache(me, b, bs, b_fetched, opt.verify_checksums);
    if (as.failed || bs.failed) {
      // Exhausted retries on an operand: push the task to the tail and move
      // on — the pipeline refetches it with fresh handles later (each retry
      // of the tail copy draws new fault decisions).  The failed flag stays
      // on the state so in-flight A-reuse consumers of the same patch also
      // requeue rather than compute on unreliable data.
      SRUMMA_REQUIRE(requeues < requeue_cap,
                     "srumma: task requeue budget exhausted — transfers keep "
                     "failing after RMA retries");
      ++requeues;
      me.trace().task_requeues += 1;
      if (trace::Tracer* tr = me.tracer())
        tr->instant(me.id(), trace::Phase::Requeue, me.clock().now(), t_idx);
      tasks.push_back(t);
      continue;
    }

    if (!c.phantom()) {
      MatrixView c_tile = c.local_view(me).block(t.ci, t.cj, t.cm, t.cn);
      if (a.rma().checker() != nullptr) {
        // Declare dgemm's operand reads and result write: the checker
        // verifies no pending fetch is still filling a buffer this kernel
        // consumes, and joins direct views to the epoch conflict map.
        a.rma().declare_compute_read(me, as.view.data(), as.view.rows(),
                                     as.view.cols(), as.view.ld());
        b.rma().declare_compute_read(me, bs.view.data(), bs.view.rows(),
                                     bs.view.cols(), bs.view.ld());
        c.rma().declare_compute_write(me, c_tile.data(), c_tile.rows(),
                                      c_tile.cols(), c_tile.ld());
      }
      blas::gemm(opt.ta, opt.tb, opt.alpha, as.view, bs.view, 1.0, c_tile);
    }
    me.charge_gemm(t.cm, t.cn, t.kk,
                   std::min(as.rate_factor, bs.rate_factor));
    // Classify the block product at execution time (not per acquire): both
    // operands direct -> a direct task, anything else paid a copy buffer.
    // Keeps copy_tasks + direct_tasks == executed block products exact,
    // even under requeues, reissues and A-patch reuse.
    if (as.direct && bs.direct) {
      me.trace().direct_tasks += 1;
    } else {
      me.trace().copy_tasks += 1;
    }
  }

  if (killed_now()) {
    // Zombie drain: complete in-flight handles and release cache refs so
    // the domain's cache/checker state stays balanced; the data (if any) is
    // discarded.  Tasks this rank never committed are adopted by survivors
    // from the buddy replicas in the recovery phase below.
    const auto drain = [&](DistMatrix& mat, OperandState& st) {
      const bool fetched = st.handle.pending;
      if (fetched) mat.try_wait(me, st.handle);
      finish_cache(me, mat, st, fetched, false);
    };
    for (OperandState& st : a_state) drain(a, st);
    for (OperandState& st : b_state) drain(b, st);
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

  // Close the cache epoch: the last rank out invalidates the domain's
  // entries (A and B are only guaranteed read-only inside this multiply).
  // collect_result's barriers separate this from the next begin_epoch.
  // With a kill configured the entries are kept warm through the close:
  // the recovery epoch that follows is the same read-only quiescent
  // period, and adoption replays the panels survivors already fetched.
  // (kill_active is rank-uniform; whether the kill TRIPPED is not yet.)
  for (cache::BlockCacheSet* cset : cache_sets)
    if (cset != nullptr) cset->end_epoch(me, /*keep_warm=*/kill_active);

  if (recovery) recovery->run(me, a, b, c);

  const index_t m = c.rows();
  const index_t n = c.cols();
  return collect_result(me, start_vt, my_start,
                        gemm_flops(static_cast<double>(m),
                                   static_cast<double>(n),
                                   static_cast<double>(plan.k_total)));
}

}  // namespace srumma
