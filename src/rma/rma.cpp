#include "rma/rma.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "cache/block_cache.hpp"
#include "runtime/abortable_wait.hpp"
#include "trace/tracer.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace srumma {

RetryPolicy RetryPolicy::from_env() {
  const RetryPolicy d;
  return {
      env::integer<int>("SRUMMA_FAULT_MAX_ATTEMPTS").value_or(d.max_attempts),
      env::real("SRUMMA_FAULT_BACKOFF_BASE").value_or(d.backoff_base),
      env::real("SRUMMA_FAULT_BACKOFF_MULT").value_or(d.backoff_mult),
      env::real("SRUMMA_FAULT_OP_TIMEOUT").value_or(d.op_timeout)};
}

RmaRuntime::RmaRuntime(Team& team, RmaConfig cfg)
    : team_(team),
      zero_copy_(cfg.zero_copy.value_or(team.machine().zero_copy)),
      retry_(cfg.retry ? *cfg.retry : RetryPolicy::from_env()),
      next_alloc_seq_(static_cast<std::size_t>(team.size()), 0),
      next_free_seq_(static_cast<std::size_t>(team.size()), 0) {
  SRUMMA_REQUIRE(retry_.max_attempts >= 1 && retry_.backoff_base >= 0.0 &&
                     retry_.backoff_mult >= 1.0 && retry_.op_timeout >= 0.0,
                 "RetryPolicy: invalid parameters");
  if (cfg.faults)
    team_.set_fault_plane(
        std::make_shared<fault::FaultPlane>(team_.machine(), *cfg.faults));
  if (cfg.check.value_or(check::RmaChecker::env_enabled()))
    checker_ = std::make_unique<check::RmaChecker>(team, cfg.check_throw);
  // A non-zero capacity set in code beats SRUMMA_CACHE_CAP; 0 defers to it.
  const auto env_capacity = env::integer<std::uint64_t>("SRUMMA_CACHE_CAP");
  if (cfg.cache.value_or(env::flag("SRUMMA_CACHE").value_or(false)))
    cache_ = std::make_unique<cache::BlockCacheSet>(
        team, cache::CacheConfig{true, cfg.cache_capacity != 0
                                           ? cfg.cache_capacity
                                           : env_capacity.value_or(0)});
  // Let Team::abort wake ranks parked in a collective allocation promptly.
  alloc_cv_id_ = team_.add_abort_cv(&alloc_cv_);
}

RmaRuntime::~RmaRuntime() { team_.remove_abort_cv(alloc_cv_id_); }

void RmaRuntime::declare_direct_access(Rank& me, const SymmetricRegion& region,
                                       int owner, index_t offset_elems,
                                       index_t rows, index_t cols, index_t ld,
                                       std::source_location site) {
  if (!checker_) return;
  check::Footprint f = shape(rows, cols, ld);
  f.lo = static_cast<std::uint64_t>(offset_elems) * sizeof(double);
  checker_->on_direct_access(me.id(), owner, region.seq, f, site);
}

SymmetricRegion RmaRuntime::malloc_symmetric(Rank& me, std::size_t elems) {
  const int size = team_.size();
  const std::uint64_t seq = next_alloc_seq_[static_cast<std::size_t>(me.id())]++;
  SymmetricRegion region;
  region.seq = seq;
  {
    std::unique_lock<std::mutex> lock(alloc_mu_);
    AllocRecord& rec = live_allocs_[seq];
    if (rec.segs.empty()) {
      rec.segs.resize(static_cast<std::size_t>(size));
      rec.bases.assign(static_cast<std::size_t>(size), nullptr);
    }
    auto& seg = rec.segs[static_cast<std::size_t>(me.id())];
    seg.assign(elems, 0.0);
    rec.bases[static_cast<std::size_t>(me.id())] =
        elems > 0 ? seg.data() : nullptr;
    if (++rec.arrived == size) {
      rec.ready = true;
      alloc_cv_.notify_all();
    } else {
      wait_abortable(lock, alloc_cv_, team_, [&] { return rec.ready; });
    }
    region.bases = rec.bases;
  }
  if (checker_)
    checker_->on_malloc(me.id(), region.seq, region.base(me.id()), elems);
  me.barrier();
  return region;
}

void RmaRuntime::free_symmetric(Rank& me, const SymmetricRegion& region) {
  const int size = team_.size();
  if (checker_)
    checker_->on_free(me.id(), region.seq, std::source_location::current());
  {
    std::unique_lock<std::mutex> lock(alloc_mu_);
    auto it = live_allocs_.find(region.seq);
    SRUMMA_REQUIRE(it != live_allocs_.end(),
                   "free_symmetric: region is not live (already freed, or "
                   "never allocated by this runtime)");
    // A foreign SymmetricRegion (allocated by another runtime instance) can
    // collide on seq but never on the actual segment addresses.
    SRUMMA_REQUIRE(it->second.bases == region.bases,
                   "free_symmetric: region was not allocated by this runtime");
    FreeRecord& fr = free_arrivals_[region.seq];
    if (fr.freed.empty())
      fr.freed.assign(static_cast<std::size_t>(size), 0);
    char& mine = fr.freed[static_cast<std::size_t>(me.id())];
    SRUMMA_REQUIRE(mine == 0, "free_symmetric: double free");
    mine = 1;
    if (++fr.arrived == size) {
      live_allocs_.erase(region.seq);
      free_arrivals_.erase(region.seq);
      alloc_cv_.notify_all();
    } else {
      wait_abortable(lock, alloc_cv_, team_, [&] {
        return live_allocs_.count(region.seq) == 0;
      });
    }
  }
  me.barrier();
}

RmaHandle RmaRuntime::transfer(Rank& me, int owner, std::size_t bytes,
                               bool is_get) {
  const MachineModel& mm = team_.machine();
  RmaHandle h;
  h.pending = true;
  h.issued = true;
  h.attempts = 1;
  if (bytes == 0) {
    // A zero-byte op is a no-op on every transport: complete immediately
    // without charging the issue overhead or drawing from the fault plane's
    // decision stream (which would shift deterministic fault schedules).
    h.issue_vt = h.completion = me.clock().now();
    return h;
  }
  me.clock().advance(mm.rma_issue_overhead);
  const double t0 = me.clock().now();
  h.issue_vt = t0;

  // Fault injection: draw this op's fate from the team's plane (nullptr in
  // the common case — one branch, no arithmetic change when disabled).
  fault::FaultDecision fd;
  fault::FaultPlane* fp = team_.faults();
  if (fp != nullptr) {
    fd = fp->on_transfer(me.id(), owner, t0);
    h.failed = fd.fail;
    h.corrupted = fd.corrupt;
    if (fd.fail) {
      me.trace().faults_injected += 1;
      if (trace::Tracer* tr = team_.tracer_ptr())
        tr->instant(me.id(), trace::Phase::Fault, t0);
    }
    if (fd.delay > 1.0) me.trace().faults_delayed += 1;
    // faults_corrupted is counted where the corruption is applied, in
    // issue() (accumulates are exempt — a corrupted read-modify-write could
    // not be redone, so the corrupt channel skips Acc ops).

    // Permanent fail-stop: any transfer targeting a killed domain fails —
    // the payload never arrives.  Forced AFTER the random draw above so the
    // transient classes' decision streams are untouched, and not counted in
    // faults_injected (this is structural loss, not a transient fault; the
    // drain is counted once per handle as rma_domain_dead in wait_impl).
    if (fp->domain_killed(mm.domain_of(owner))) {
      h.failed = true;
      h.corrupted = false;
    }
  }

  const double dbytes = static_cast<double>(bytes);
  if (mm.same_domain(me.id(), owner)) {
    // Intra-domain: a block memory copy executed by the *origin CPU* — it
    // cannot be overlapped with computation, so the cost is charged to the
    // clock synchronously.  The copy also queues on the domain's aggregate
    // memory system, so many ranks copying at once see reduced bandwidth.
    double dur = dbytes / mm.shm_bw;
    if (fp != nullptr) dur *= fd.delay;
    const double ready = t0 + mm.shm_latency;
    const double agg = team_.network()
                           .domain_mem(mm.domain_of(me.id()))
                           .book(ready, dbytes / mm.domain_agg_bw());
    me.clock().sync_to(std::max(ready + dur, agg));
    h.completion = me.clock().now();
    h.duration = dur;
    me.trace().bytes_shm += bytes;
  } else {
    // Inter-node RMA: the request travels to the target (t_s), then the
    // payload serializes on the source node's egress NIC and the
    // destination node's ingress NIC.
    const double ready = t0 + mm.net_latency;
    double dur = dbytes / mm.net_bw;
    if (!zero_copy_) {
      // Host-assisted protocol: the owner's CPU copies between user and
      // DMA buffers; that time is stolen from whatever the owner was doing.
      const double host = dbytes / mm.host_copy_bw;
      dur += host;
      team_.rank(owner).clock().add_steal(host);
    }
    const int src_node = is_get ? mm.node_of(owner) : mm.node_of(me.id());
    const int dst_node = is_get ? mm.node_of(me.id()) : mm.node_of(owner);
    if (fp != nullptr) dur *= fd.delay * fp->link_delay(src_node, dst_node);
    const double c1 = team_.network().nic_out(src_node).book(ready, dur);
    const double c2 = team_.network().nic_in(dst_node).book(ready, dur);
    h.completion = std::max(c1, c2);
    h.duration = dur;
    me.trace().bytes_remote += bytes;
  }
  me.trace().time_comm += h.duration;
  return h;
}

namespace {

/// Deterministic per-op salt for payload corruption: virtual issue times
/// are themselves deterministic, so this replays exactly.
std::uint64_t corrupt_salt(int rank, int owner, double issue_vt) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 32) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(owner)) ^
         std::bit_cast<std::uint64_t>(issue_vt);
}

/// Payload size of an op — the amount the in-flight counter tracks from
/// issue to consumption (wait_impl).
std::uint64_t op_bytes(const ReplayOp& op) {
  return static_cast<std::uint64_t>(op.rows) *
         static_cast<std::uint64_t>(op.cols) * sizeof(double);
}

/// Trace one issued one-sided op: an async in-flight span [issue,
/// completion] plus in-flight byte/depth counter bumps, matched by the
/// decrement at consumption time in wait_impl.
void trace_issue(trace::Tracer* tr, int rank, trace::Phase ph,
                 const RmaHandle& h) {
  if (tr == nullptr) return;
  const std::uint64_t bytes = op_bytes(h.op);
  tr->span(rank, ph, h.issue_vt, h.completion, bytes);
  tr->counter_add(rank, trace::CounterId::InflightBytes, h.issue_vt,
                  static_cast<double>(bytes));
  tr->counter_add(rank, trace::CounterId::InflightOps, h.issue_vt, 1.0);
}

}  // namespace

RmaHandle RmaRuntime::issue(Rank& me, const ReplayOp& op,
                            std::source_location site) {
  using Kind = ReplayOp::Kind;
  const bool get = op.kind == Kind::Get2d;
  const bool acc = op.kind == Kind::Acc2d;
  const char* name = get ? "nbget2d" : acc ? "nbacc2d" : "nbput2d";
  SRUMMA_REQUIRE(op.rows >= 0 && op.cols >= 0,
                 std::string(name) + ": negative patch extent");
  SRUMMA_REQUIRE(op.ld_src >= op.rows && op.ld_src >= 1,
                 std::string(name) + ": source leading dimension < rows");
  SRUMMA_REQUIRE(op.ld_dst >= op.rows && op.ld_dst >= 1,
                 std::string(name) + ": destination leading dimension < rows");
  SRUMMA_REQUIRE(op.owner >= 0 && op.owner < team_.size(),
                 std::string(name) + ": owner rank out of range");
  const std::uint64_t bytes = op_bytes(op);
  RmaHandle h = transfer(me, op.owner, bytes, get);
  h.op = op;
  // Accumulates are exempt from the corruption channel: the read-modify-
  // write could not be redone after a detected corruption (it is not
  // idempotent), so only fail/delay apply.  The same non-idempotence exempts
  // a late-but-successful accumulate from the op-timeout re-issue in
  // wait_impl — only a *failed* attempt (no add performed, see below) is
  // ever replayed.
  if (acc) h.corrupted = false;
  if (checker_) {
    // The remote side is the owner's segment: a get's source, a put's or
    // accumulate's destination.
    const check::Footprint src_shape = shape(op.rows, op.cols, op.ld_src);
    const check::Footprint dst_shape = shape(op.rows, op.cols, op.ld_dst);
    h.check_id =
        get ? checker_->on_issue(me.id(), check::OpKind::Get, op.owner, op.src,
                                 src_shape, op.dst, dst_shape, site)
            : checker_->on_issue(me.id(),
                                 acc ? check::OpKind::Acc : check::OpKind::Put,
                                 op.owner, op.dst, dst_shape, op.src,
                                 src_shape, site);
  }
  const bool data = op.src != nullptr && op.dst != nullptr && op.rows > 0 &&
                    op.cols > 0;  // false for phantom and empty ops
  if (!h.failed && acc) {
    // The read-modify-write always runs on the owner's host CPU, even on
    // zero-copy networks: charge the add to the owner (remote) or to the
    // origin (same domain — the origin CPU performs it).  A failed attempt
    // never reaches the owner, so it performs (and charges) no add.
    const MachineModel& mm = team_.machine();
    if (bytes > 0) {
      const double add_time = static_cast<double>(bytes) / mm.host_copy_bw;
      if (mm.same_domain(me.id(), op.owner)) {
        me.clock().advance(add_time);
      } else {
        team_.rank(op.owner).clock().add_steal(add_time);
        h.completion += add_time;
      }
    }
    if (data) {
      std::lock_guard<std::mutex> lock(acc_mu_);
      for (index_t j = 0; j < op.cols; ++j)
        for (index_t i = 0; i < op.rows; ++i)
          op.dst[i + j * op.ld_dst] += op.alpha * op.src[i + j * op.ld_src];
    }
  } else if (!h.failed && data) {
    for (index_t j = 0; j < op.cols; ++j)
      std::memcpy(op.dst + j * op.ld_dst, op.src + j * op.ld_src,
                  static_cast<std::size_t>(op.rows) * sizeof(double));
    if (h.corrupted) {
      fault::FaultPlane::corrupt_payload(
          op.dst, op.ld_dst, op.rows, op.cols,
          corrupt_salt(me.id(), op.owner, h.issue_vt));
      me.trace().faults_corrupted += 1;
    }
  }
  if (get)
    me.trace().gets += 1;
  else
    me.trace().puts += 1;
  trace_issue(team_.tracer_ptr(), me.id(),
              get   ? trace::Phase::Get
              : acc ? trace::Phase::Acc
                    : trace::Phase::Put,
              h);
  return h;
}

RmaHandle RmaRuntime::nbget(Rank& me, int owner, const double* src,
                            double* dst, std::size_t elems,
                            std::source_location site) {
  const auto n = static_cast<index_t>(elems);
  const index_t ld = std::max<index_t>(n, 1);
  return nbget2d(me, owner, src, ld, n, 1, dst, ld, site);
}

RmaHandle RmaRuntime::nbget2d(Rank& me, int owner, const double* src,
                              index_t ld_src, index_t rows, index_t cols,
                              double* dst, index_t ld_dst,
                              std::source_location site) {
  return issue(me,
               {ReplayOp::Kind::Get2d, owner, 0.0, src, ld_src, rows, cols,
                dst, ld_dst},
               site);
}

RmaHandle RmaRuntime::nbput2d(Rank& me, int owner, const double* src,
                              index_t ld_src, index_t rows, index_t cols,
                              double* dst, index_t ld_dst,
                              std::source_location site) {
  return issue(me,
               {ReplayOp::Kind::Put2d, owner, 0.0, src, ld_src, rows, cols,
                dst, ld_dst},
               site);
}

RmaHandle RmaRuntime::nbacc2d(Rank& me, int owner, double alpha,
                              const double* src, index_t ld_src, index_t rows,
                              index_t cols, double* dst, index_t ld_dst,
                              std::source_location site) {
  return issue(me,
               {ReplayOp::Kind::Acc2d, owner, alpha, src, ld_src, rows, cols,
                dst, ld_dst},
               site);
}

RmaStatus RmaRuntime::wait_impl(Rank& me, RmaHandle& h, bool throw_on_error,
                                std::source_location site) {
  SRUMMA_REQUIRE(h.issued, "wait: handle was never issued");
  if (!h.pending) {
    // Idempotent on already-completed handles (the checker still sees the
    // repeat wait and reports its double-wait diagnostic).
    if (checker_) checker_->on_wait(me.id(), h.check_id, site);
    return h.status;
  }
  for (;;) {
    if (team_.aborted()) throw Error("team aborted while waiting on rma op");
    if (checker_) checker_->on_wait(me.id(), h.check_id, site);
    const double before = me.clock().now();
    double waited = 0.0;
    if (h.completion > before) {
      waited = h.completion - before;
      me.trace().time_wait += waited;
      me.clock().sync_to(h.completion);
    }
    h.pending = false;

    bool attempt_failed = h.failed;
    if (!attempt_failed && retry_.op_timeout > 0.0 &&
        h.completion - h.issue_vt > retry_.op_timeout) {
      // The attempt completed, but only after blowing its per-op deadline
      // (e.g. an injected straggler): a real initiator would have
      // abandoned and re-issued it, so treat it as failed.  Accumulates
      // are exempt: their read-modify-write was already applied at the
      // owner when the op was issued, so re-issuing a late-but-successful
      // accumulate would apply alpha*src a second time.  The overrun is
      // still counted; the attempt is kept.
      me.trace().rma_op_timeouts += 1;
      if (trace::Tracer* tr = team_.tracer_ptr())
        tr->instant(me.id(), trace::Phase::OpTimeout, me.clock().now());
      if (h.op.kind != ReplayOp::Kind::Acc2d) attempt_failed = true;
    }
    // The attempt is consumed either way: retire its in-flight counters
    // (a re-issue below re-increments them) and classify the wait span
    // now that success/failure is known — Wait feeds time_wait only,
    // RecoveryWait feeds both time_wait and time_recovery, which is what
    // keeps span totals reconcilable with the counters.
    if (trace::Tracer* tr = team_.tracer_ptr()) {
      const double now = me.clock().now();
      tr->counter_add(me.id(), trace::CounterId::InflightBytes, now,
                      -static_cast<double>(op_bytes(h.op)));
      tr->counter_add(me.id(), trace::CounterId::InflightOps, now, -1.0);
      if (waited > 0.0)
        tr->span(me.id(),
                 attempt_failed ? trace::Phase::RecoveryWait
                                : trace::Phase::Wait,
                 before, h.completion);
    }
    if (!attempt_failed) {
      h.status = RmaStatus::Ok;
      return RmaStatus::Ok;
    }
    me.trace().time_recovery += waited;  // time sunk into the failed attempt
    if (trace::Tracer* tr = team_.tracer_ptr())
      tr->counter_set(me.id(), trace::CounterId::RecoverySeconds,
                      me.clock().now(), me.trace().time_recovery);

    // Failure detector (docs/FAULTS.md §7): a failed attempt against a
    // killed domain is permanent, not transient.  Once the retry budget
    // is exhausted the initiator PROMOTES the failure — it declares the
    // domain dead team-wide and completes the handle with the terminal
    // DomainDead status (no throw: recovery-aware callers refetch from
    // the buddy replicas).  Later waits on ops already in flight against
    // a declared-dead domain fast-fail on their first failed attempt
    // instead of burning the full budget.
    if (fault::FaultPlane* fp = team_.faults(); fp != nullptr) {
      const int target_domain = team_.machine().domain_of(h.op.owner);
      if (fp->domain_killed(target_domain) &&
          (fp->domain_dead(target_domain) ||
           h.attempts >= retry_.max_attempts)) {
        fp->declare_dead(target_domain);
        h.status = RmaStatus::DomainDead;
        me.trace().rma_domain_dead += 1;
        if (trace::Tracer* tr = team_.tracer_ptr())
          tr->instant(me.id(), trace::Phase::DomainDead, me.clock().now(),
                      static_cast<std::uint64_t>(target_domain));
        return RmaStatus::DomainDead;
      }
    }

    if (h.attempts >= retry_.max_attempts) {
      h.status = RmaStatus::Error;
      if (throw_on_error)
        throw Error("rma wait: transfer still failing after " +
                    std::to_string(h.attempts) + " attempts");
      return RmaStatus::Error;
    }

    // Exponential backoff before the re-issue, charged to virtual time.
    const double backoff =
        retry_.backoff_base *
        std::pow(retry_.backoff_mult, static_cast<double>(h.attempts - 1));
    if (backoff > 0.0) {
      const double b0 = me.clock().now();
      me.clock().advance(backoff);
      me.trace().time_recovery += backoff;
      if (trace::Tracer* tr = team_.tracer_ptr()) {
        tr->span(me.id(), trace::Phase::Backoff, b0, me.clock().now());
        tr->counter_set(me.id(), trace::CounterId::RecoverySeconds,
                        me.clock().now(), me.trace().time_recovery);
      }
    }
    me.trace().rma_retries += 1;
    if (trace::Tracer* tr = team_.tracer_ptr())
      tr->instant(me.id(), trace::Phase::Retry, me.clock().now(),
                  static_cast<std::uint64_t>(h.attempts));

    // Re-issue: a fresh checker-visible op with its own check_id (never a
    // double wait) and a fresh fault draw.
    const int attempts = h.attempts;
    h = issue(me, h.op, site);
    h.attempts = attempts + 1;
  }
}

void RmaRuntime::wait(Rank& me, RmaHandle& h, std::source_location site) {
  wait_impl(me, h, /*throw_on_error=*/true, site);
}

RmaStatus RmaRuntime::try_wait(Rank& me, RmaHandle& h,
                               std::source_location site) {
  return wait_impl(me, h, /*throw_on_error=*/false, site);
}

}  // namespace srumma
