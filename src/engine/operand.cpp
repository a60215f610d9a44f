#include "engine/operand.hpp"

#include <algorithm>

#include "blas/gemm.hpp"
#include "fault/fault_plane.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace srumma::engine {

void acquire(Rank& me, DistMatrix& mat, index_t i0, index_t j0, index_t mi,
             index_t nj, ShmFlavor flavor, OperandState& st) {
  const MachineModel& mm = me.machine();
  SRUMMA_ASSERT(!st.cache_ref.active(),
                "srumma: re-acquiring an operand whose cache ref was never "
                "finished");
  st.handle = PatchHandle{};
  st.view = ConstMatrixView{};
  st.i0 = i0;
  st.j0 = j0;
  st.m = mi;
  st.n = nj;
  st.failed = false;
  st.rate_factor = 1.0;

  if (flavor == ShmFlavor::Direct) {
    const std::optional<int> owner =
        mat.single_owner_in_domain(me, i0, j0, mi, nj);
    fault::FaultPlane* fp = me.team().faults();
    if (owner.has_value() && fp != nullptr &&
        fp->direct_faults(mm.domain_of(*owner))) {
      // Direct loads/stores into this domain fault (injected dead domain):
      // degrade this peer's access flavor to Copy — the one-sided get path
      // below still works, it just pays the buffer.
      me.trace().shm_fallbacks += 1;
      if (trace::Tracer* tr = me.tracer())
        tr->instant(me.id(), trace::Phase::ShmFallback, me.clock().now());
    } else if (owner.has_value()) {
      st.direct = true;
      // dgemm streams operands straight out of the owner's memory; when the
      // owner sits on another physical node the kernel runs at the
      // machine's remote-direct rate (non-cacheable on the X1, NUMA-far on
      // the Altix).
      st.rate_factor = mm.node_of(*owner) == me.node()
                           ? 1.0
                           : mm.remote_direct_rate_factor;
      if (!mat.phantom()) {
        st.view = *mat.direct_view(me, i0, j0, mi, nj);
      } else {
        // No data to view, but the *modeled* loads still reach through to
        // the owner's segment — declare them so the checker sees the same
        // access pattern the real run would.
        mat.declare_direct_read(me, *owner, i0, j0, mi, nj);
      }
      return;
    }
  }
  // Copy path: fetch into the local buffer with a (possibly) nonblocking
  // generalized get.
  st.direct = false;
  MatrixView dst;
  if (!mat.phantom()) {
    if (st.buf.rows() < mi || st.buf.cols() < nj) {
      st.buf = Matrix(mi, nj);
    }
    dst = st.buf.block(0, 0, mi, nj);
    st.view = dst;
  }
  const auto do_fetch = [&] { st.handle = mat.fetch_nb(me, i0, j0, mi, nj, dst); };
  cache::BlockCacheSet* cs = mat.rma().block_cache();
  if (cs != nullptr && !mat.rect_in_domain(me, i0, j0, mi, nj)) {
    // Cooperative single-flight acquisition.  As fetcher, the callback
    // issues this rank's own get and reports whether the issue was clean —
    // every piece delivered, uncorrupted, and inside the per-op deadline —
    // in which case the bytes are publishable for domain mates right away.
    // As sharer, no get is issued at all (st.handle stays empty, so the
    // executor's wait/verify steps skip naturally); the buffer is filled
    // from the published entry by finish_cache before dgemm.
    const cache::PatchKey key{mat.region_seq(), i0, j0, mi, nj};
    st.cache_ref = cs->acquire(
        me, key, mat.remote_piece_bytes(me, i0, j0, mi, nj),
        [&]() -> cache::FetchOutcome {
          do_fetch();
          const double deadline = mat.rma().retry_policy().op_timeout;
          bool clean = true;
          for (const RmaHandle& p : st.handle.pieces) {
            if (p.failed || p.corrupted ||
                (deadline > 0.0 && p.completion - p.issue_vt > deadline)) {
              clean = false;
            }
          }
          return {st.handle.completion(), clean};
        },
        st.view);
    if (st.cache_ref.role == cache::Role::Bypass) do_fetch();
  } else {
    do_fetch();
  }
  st.cap_bytes = std::max(
      st.cap_bytes,
      static_cast<std::uint64_t>(mi) * static_cast<std::uint64_t>(nj) *
          sizeof(double));
}

void verify_operand(Rank& me, DistMatrix& mat, OperandState& st) {
  if (st.direct || st.failed || mat.phantom()) return;
  int redos = 0;
  while (!mat.verify_fetched(me, st.i0, st.j0, st.m, st.n, st.view)) {
    SRUMMA_REQUIRE(++redos <= 16,
                   "srumma: fetched patch still corrupt after 16 refetches");
    const double t0 = me.clock().now();
    MatrixView dst = st.buf.block(0, 0, st.m, st.n);
    PatchHandle h = mat.fetch_nb(me, st.i0, st.j0, st.m, st.n, dst);
    const bool ok = mat.try_wait(me, h);
    me.trace().checksum_redos += 1;
    me.trace().time_recovery += me.clock().now() - t0;
    if (trace::Tracer* tr = me.tracer()) {
      tr->span(me.id(), trace::Phase::Redo, t0, me.clock().now());
      tr->counter_set(me.id(), trace::CounterId::RecoverySeconds,
                      me.clock().now(), me.trace().time_recovery);
    }
    if (!ok) {
      st.failed = true;
      return;
    }
  }
}

void finish_cache(Rank& me, DistMatrix& mat, OperandState& st, bool fetched,
                  bool verify) {
  if (!st.cache_ref.active()) return;
  cache::BlockCacheSet* cset = mat.rma().block_cache();
  if (st.cache_ref.role == cache::Role::Shared) {
    MatrixView dst;
    if (!mat.phantom()) dst = st.buf.block(0, 0, st.m, st.n);
    cset->consume_shared(me, st.cache_ref, dst);
    mat.declare_shared_read(me, st.i0, st.j0, st.m, st.n);
  } else {
    bool corrupted = false;
    for (const RmaHandle& p : st.handle.pieces) corrupted |= p.corrupted;
    const bool verified = verify && fetched && !st.failed && !mat.phantom();
    cset->finish_fetch(me, st.cache_ref,
                       !st.failed && (verified || !corrupted), st.view);
  }
}

void ReissueBudget::charge(Rank& me, std::uint64_t idx) {
  SRUMMA_REQUIRE(used < cap, exhausted);
  ++used;
  me.trace().task_reissues += 1;
  if (trace::Tracer* tr = me.tracer())
    tr->instant(me.id(), trace::Phase::TaskRearm, me.clock().now(), idx);
}

void settle(Rank& me, DistMatrix& mat, OperandState& st, bool verify) {
  const bool fetched = st.handle.pending;
  if (fetched && !mat.try_wait(me, st.handle)) st.failed = true;
  if (verify && fetched) verify_operand(me, mat, st);
  finish_cache(me, mat, st, fetched, verify);
}

void multiply(Rank& me, const SrummaOptions& opt, DistMatrix& a,
              DistMatrix& b, DistMatrix* c, const Task& t,
              const OperandState& sa, const OperandState& sb, MatrixView dst) {
  if (!a.phantom()) {
    if (a.rma().checker() != nullptr) {
      // Declare dgemm's operand reads (and the C-tile write): the checker
      // verifies no pending fetch is still filling a buffer this kernel
      // consumes, and joins direct views to the epoch conflict map.
      a.rma().declare_compute_read(me, sa.view.data(), sa.view.rows(),
                                   sa.view.cols(), sa.view.ld());
      b.rma().declare_compute_read(me, sb.view.data(), sb.view.rows(),
                                   sb.view.cols(), sb.view.ld());
      if (c != nullptr)
        c->rma().declare_compute_write(me, dst.data(), dst.rows(), dst.cols(),
                                       dst.ld());
    }
    blas::gemm(opt.ta, opt.tb, opt.alpha, sa.view, sb.view, 1.0, dst);
  }
  me.charge_gemm(t.cm, t.cn, t.kk, std::min(sa.rate_factor, sb.rate_factor));
  if (sa.direct && sb.direct) {
    me.trace().direct_tasks += 1;
  } else {
    me.trace().copy_tasks += 1;
  }
}

std::uint64_t executor_cache_cap(const MachineModel& mm, const TaskPlan& plan,
                                 int lookahead) {
  return static_cast<std::uint64_t>(mm.domain_size()) *
         (2 * static_cast<std::uint64_t>(lookahead) + 3) *
         std::max(static_cast<std::uint64_t>(plan.max_a_m) *
                      static_cast<std::uint64_t>(plan.max_a_n),
                  static_cast<std::uint64_t>(plan.max_b_m) *
                      static_cast<std::uint64_t>(plan.max_b_n)) *
         sizeof(double);
}

CacheEpoch::CacheEpoch(Rank& me, DistMatrix& a, DistMatrix& b,
                       std::uint64_t cap, bool keep_warm)
    : sets_{a.rma().block_cache(), b.rma().block_cache()} {
  if (sets_[1] == sets_[0]) sets_[1] = nullptr;
  for (cache::BlockCacheSet* cset : sets_)
    if (cset != nullptr) cset->begin_epoch(me, cap, keep_warm);
}

void CacheEpoch::close(Rank& me, bool keep_warm) {
  for (cache::BlockCacheSet* cset : sets_)
    if (cset != nullptr) cset->end_epoch(me, keep_warm);
}

void drain(Rank& me, DistMatrix& mat, OperandState& st) {
  const bool fetched = st.handle.pending;
  if (fetched) mat.try_wait(me, st.handle);
  finish_cache(me, mat, st, fetched, false);
}

}  // namespace srumma::engine
