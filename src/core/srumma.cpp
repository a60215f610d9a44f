#include "core/srumma.hpp"

#include <memory>

#include "engine/engine.hpp"
#include "engine/recovery.hpp"
#include "fault/fault_plane.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace srumma {

namespace {

// Auto-tuning (k_chunk, lookahead, buffer-budget shrink) lives in
// tune_options so the static analyzer resolves the exact executor
// configuration a run would use (src/analysis, docs/ANALYSIS.md).  Both
// steps are pure in their inputs, so a repeated multiply into this C takes
// them from its memo.  Kept out of line: its temporaries would otherwise
// deepen every rank's fiber stack under the executor.
[[gnu::noinline]] std::shared_ptr<const PlanMemo> memoized_plan(
    Rank& me, const DistMatrix& a, const DistMatrix& b, DistMatrix& c,
    const SrummaOptions& opt) {
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
  return memo;
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

  const std::shared_ptr<const PlanMemo> memo =
      memoized_plan(me, a, b, c, opt);
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

  // One executor for both operand lifetimes (src/engine, docs/ENGINE.md).
  // Every operand buffer is freed only after collect_result's barriers: the
  // happens-before race detector (docs/ANALYSIS.md) keys local buffers by
  // address, and a buffer freed earlier could be reallocated to another
  // rank whose fetches into it no barrier orders after ours.
  engine::OperandPool operands;
  // One cooperative-cache epoch around the executor; the entry barrier (or
  // replication's publication barrier) is the inter-multiply separator it
  // requires.  The last rank out invalidates the domain's entries (A and B
  // are only guaranteed read-only inside this multiply), except with a kill
  // configured: recovery's epoch continues the same read-only quiescent
  // period, and adoption replays the panels survivors already fetched.
  // (kill_active is rank-uniform; whether the kill TRIPPED is not yet.)
  engine::CacheEpoch cache_epoch(
      me, a, b, engine::executor_cache_cap(me.machine(), plan, lookahead));
  MatrixView mine;
  if (!c.phantom()) mine = c.local_view(me);
  const std::size_t committed =
      engine::run_plan(me, a, b, mine, &c, tuned, lookahead, plan, operands);
  if (engine::selected(tuned.engine)) me.trace().engine_tasks += committed;
  cache_epoch.close(me, /*keep_warm=*/kill_active);
  if (kill_active) engine::recover(me, a, b, c, opt, operands);

  return collect_result(me, start_vt, my_start,
                        gemm_flops(static_cast<double>(c.rows()),
                                   static_cast<double>(c.cols()),
                                   static_cast<double>(plan.k_total)));
}

}  // namespace srumma
