#pragma once
// One-sided communication runtime (the ARMCI stand-in).
//
// This layer reproduces the ARMCI facilities SRUMMA depends on:
//   * ARMCI_Malloc        -> malloc_symmetric(): collective allocation that
//                            returns every rank's base pointer, so peers in
//                            the same shared-memory domain can load/store
//                            each other's segments directly;
//   * cluster query       -> MachineModel::same_domain() (team().machine()):
//                            which ranks share memory;
//   * nonblocking get/put -> nbget/nbget2d/nbput2d/nbacc2d + wait(),
//                            one-sided with no target-side coordination.
//
// Ranks share one OS address space, so the data movement is a memcpy; the
// *cost* of each operation is charged to virtual clocks according to the
// machine model:
//   * intra-domain ops pay shm latency + copy time, and additionally queue
//     on the domain's aggregate memory-system resource;
//   * inter-node ops pay the request latency (t_s), then queue the wire
//     time (bytes * t_w) on the source node's egress NIC and the target
//     node's ingress NIC;
//   * on machines without zero-copy NICs (IBM SP / LAPI) the transfer also
//     pays a host-CPU copy, and that time is *stolen* from the data owner's
//     rank — reproducing the paper's observation that non-zero-copy
//     protocols tax the remote CPU (Section 4.1, Fig. 9).
//
// Passing nullptr for a data pointer runs the op in "phantom" mode: full
// cost accounting, no actual copy.  The model-only benches use this to run
// N=16000-class problems instantly.

#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <source_location>
#include <vector>

#include "check/rma_checker.hpp"
#include "fault/fault_plane.hpp"
#include "runtime/team.hpp"
#include "util/aligned.hpp"
#include "util/matrix.hpp"

namespace srumma {

namespace cache {
class BlockCacheSet;
}  // namespace cache

/// Completion status of a one-sided operation (valid once the handle is no
/// longer pending).
enum class RmaStatus {
  Ok,     ///< transfer delivered
  Error,  ///< transient failures exhausted the retry budget
  /// Terminal: the target's shared-memory domain has permanently
  /// fail-stopped (docs/FAULTS.md §7).  Distinct from Error ("transient
  /// budget exhausted"): the op will never succeed, no retry is attempted
  /// once the domain is declared dead, and callers must recover from the
  /// buddy replicas.  Counted in rma_domain_dead, separately from
  /// rma_op_timeouts ("peer slow").
  DomainDead
};

/// Recovery policy applied inside RmaRuntime when a transfer completes in
/// an error state (injected transient failure) or overruns its per-attempt
/// deadline.  All times are *virtual* seconds: backoff is charged to the
/// waiting rank's clock and accounted as time_recovery, so benches can
/// quantify recovery overhead.
struct RetryPolicy {
  int max_attempts = 3;        ///< total issue attempts (>= 1)
  double backoff_base = 2e-6;  ///< virtual pause before the first re-issue
  double backoff_mult = 2.0;   ///< exponential growth per further retry
  /// Per-attempt completion deadline (virtual seconds); an attempt whose
  /// modeled completion exceeds issue time + op_timeout is abandoned and
  /// re-issued (counts against max_attempts).  0 disables the deadline.
  /// Accumulates are exempt from the re-issue (their read-modify-write was
  /// already applied at the owner, so a replay would double-apply); the
  /// overrun is still counted in rma_op_timeouts.
  double op_timeout = 0.0;

  /// The defaults with any SRUMMA_FAULT_MAX_ATTEMPTS / _BACKOFF_BASE /
  /// _BACKOFF_MULT / _OP_TIMEOUT values applied.
  [[nodiscard]] static RetryPolicy from_env();
};

/// Tuning knobs for protocol experiments (Fig. 9) and checking.
struct RmaConfig {
  /// Override the machine's zero-copy capability (disable to measure the
  /// host-CPU-copy penalty on a zero-copy-capable network).
  std::optional<bool> zero_copy;
  /// Enable the shadow-state RMA checker (src/check) for this runtime,
  /// overriding the SRUMMA_RMA_CHECK environment / build default.
  std::optional<bool> check;
  /// Checker failure mode: throw srumma::Error at the first diagnostic
  /// (default) or record only (tests inspect checker()->reports()).
  bool check_throw = true;
  /// Retry policy; when unset, defaults + SRUMMA_FAULT_* env overrides.
  std::optional<RetryPolicy> retry;
  /// Install a fault-injection plane on the team (overriding any plane the
  /// SRUMMA_FAULT_* environment installed; see Team::set_fault_plane).
  std::optional<fault::FaultConfig> faults;
  /// Enable the domain-level cooperative block cache (src/cache), overriding
  /// the SRUMMA_CACHE environment default (off).
  std::optional<bool> cache;
  /// Per-domain cache capacity in bytes; 0 defers to SRUMMA_CACHE_CAP, and
  /// then to sizing from the pipeline's lookahead footprint at each
  /// multiply.
  std::uint64_t cache_capacity = 0;
};

/// One nonblocking strided op: its kind and arguments.  issue() performs
/// it; the handle keeps it so the retry loop inside RmaRuntime's waits can
/// re-issue it after a transient failure.  A contiguous get is a
/// one-column Get2d.
struct ReplayOp {
  enum class Kind : std::uint8_t { Get2d, Put2d, Acc2d };
  Kind kind = Kind::Get2d;
  int owner = 0;
  double alpha = 0.0;  ///< Acc2d only
  const double* src = nullptr;
  index_t ld_src = 0;
  index_t rows = 0;
  index_t cols = 0;
  double* dst = nullptr;
  index_t ld_dst = 0;
};

/// Completion record for a nonblocking one-sided operation.
///
/// wait() semantics: a handle becomes `issued` when returned by an nb* call
/// and stops being `pending` after its first wait().  Waiting a completed
/// handle is a documented idempotent no-op (so generic drain loops need no
/// bookkeeping); waiting a never-issued handle throws.  Under the RMA
/// checker a second wait is additionally reported as a double-wait
/// diagnostic, because in real code it almost always means a lost or
/// aliased handle.
///
/// Error/result state: with fault injection active, a transfer can complete
/// in an error state (`failed`); the retry loop inside wait()/try_wait()
/// re-issues it transparently (each re-issue is a *new* checker-visible op
/// with a fresh check_id, never a double wait).  After the handle completes,
/// `status` records the outcome; `attempts` counts issues performed.
struct RmaHandle {
  double completion = 0.0;  ///< virtual time the transfer finishes
  double duration = 0.0;    ///< modeled wire/copy time
  bool pending = false;
  bool issued = false;          ///< returned by an nb* call (wait() requires)
  std::uint64_t check_id = 0;   ///< checker handle identity (0 = untracked)

  // -- error/result state (fault injection + retry) --------------------------
  RmaStatus status = RmaStatus::Ok;  ///< outcome once no longer pending
  bool failed = false;      ///< this attempt's payload was not delivered
  bool corrupted = false;   ///< payload was delivered with injected damage
  int attempts = 0;         ///< issue attempts so far (1 after the nb* call)
  double issue_vt = 0.0;    ///< virtual time of the current attempt's issue
  ReplayOp op;              ///< re-issue recipe for the retry loop
};

/// Result of a collective symmetric allocation: every rank's base pointer.
/// Ranks in the same shared-memory domain may dereference each other's
/// segment directly (the load/store path); other segments must be reached
/// through get/put.
struct SymmetricRegion {
  std::uint64_t seq = 0;
  std::vector<double*> bases;

  [[nodiscard]] double* base(int rank) const {
    SRUMMA_REQUIRE(rank >= 0 && rank < static_cast<int>(bases.size()),
                   "SymmetricRegion::base: rank out of range");
    return bases[static_cast<std::size_t>(rank)];
  }
};

class RmaRuntime {
 public:
  explicit RmaRuntime(Team& team, RmaConfig cfg = {});
  ~RmaRuntime();
  RmaRuntime(const RmaRuntime&) = delete;
  RmaRuntime& operator=(const RmaRuntime&) = delete;

  [[nodiscard]] Team& team() noexcept { return team_; }
  [[nodiscard]] bool zero_copy() const noexcept { return zero_copy_; }

  /// Collective allocation (ARMCI_Malloc): every rank calls with its own
  /// element count and receives the base pointers of all ranks' segments.
  /// elems == 0 produces a phantom segment (nullptr).  Acts as a barrier.
  SymmetricRegion malloc_symmetric(Rank& me, std::size_t elems);

  /// Collective deallocation of a region returned by malloc_symmetric.
  /// Acts as a barrier.
  void free_symmetric(Rank& me, const SymmetricRegion& region);

  /// Nonblocking contiguous get of `elems` doubles owned by rank `owner`
  /// (a one-column nbget2d).
  RmaHandle nbget(Rank& me, int owner, const double* src, double* dst,
                  std::size_t elems,
                  std::source_location site = std::source_location::current());

  /// Nonblocking strided get of a rows x cols column-major patch.
  RmaHandle nbget2d(Rank& me, int owner, const double* src, index_t ld_src,
                    index_t rows, index_t cols, double* dst, index_t ld_dst,
                    std::source_location site = std::source_location::current());

  /// Nonblocking strided put (origin -> owner).
  RmaHandle nbput2d(Rank& me, int owner, const double* src, index_t ld_src,
                    index_t rows, index_t cols, double* dst, index_t ld_dst,
                    std::source_location site = std::source_location::current());

  /// Nonblocking strided accumulate: dst += alpha * src at the owner
  /// (ARMCI_Acc).  Element updates are atomic with respect to concurrent
  /// accumulates into the same region; cost-wise an accumulate is a put
  /// whose target-side add always runs on a host CPU (never zero-copy).
  RmaHandle nbacc2d(Rank& me, int owner, double alpha, const double* src,
                    index_t ld_src, index_t rows, index_t cols, double* dst,
                    index_t ld_dst,
                    std::source_location site = std::source_location::current());

  /// Block until a nonblocking op completes; charges the wait to the clock.
  /// Idempotent on an already-completed handle; throws on a handle that was
  /// never issued (see RmaHandle).  Transient injected failures are retried
  /// per the RetryPolicy; when the retry budget is exhausted this throws
  /// srumma::Error (use try_wait to handle the failure instead).  A handle
  /// that drains with RmaStatus::DomainDead (permanent fail-stop of the
  /// target's domain) does NOT throw — the status is terminal and recorded
  /// on the handle; recovery-aware callers inspect it and refetch from the
  /// buddy replicas (docs/FAULTS.md §7).
  void wait(Rank& me, RmaHandle& h,
            std::source_location site = std::source_location::current());

  /// Like wait(), but reports an exhausted retry budget as
  /// RmaStatus::Error instead of throwing.  The handle is always completed
  /// (never left pending) so drain loops stay balanced under failures.
  RmaStatus try_wait(Rank& me, RmaHandle& h,
                     std::source_location site = std::source_location::current());

  /// The active retry policy (RmaConfig::retry or env-adjusted defaults).
  [[nodiscard]] const RetryPolicy& retry_policy() const noexcept {
    return retry_;
  }

  /// The domain-level cooperative block cache, or nullptr when disabled
  /// (the common case — callers null-test it, exactly like the checker and
  /// the fault plane, so a disabled cache perturbs nothing).
  [[nodiscard]] cache::BlockCacheSet* block_cache() noexcept {
    return cache_.get();
  }

  // -- checker access & discipline declarations -----------------------------
  /// The shadow-state checker, or nullptr when disabled.  Every declare_*
  /// below is a single null test when checking is off.
  [[nodiscard]] check::RmaChecker* checker() noexcept { return checker_.get(); }

  /// Declare that `me`'s compute consumes [ptr, rows x cols, ld] (doubles).
  /// The checker verifies no pending get is still filling the buffer and,
  /// when ptr lies in a symmetric segment, joins it to the epoch conflict
  /// map (get-vs-dgemm overlap checking in the SRUMMA pipeline).
  void declare_compute_read(
      Rank& me, const double* ptr, index_t rows, index_t cols, index_t ld,
      std::source_location site = std::source_location::current()) {
    if (checker_)
      checker_->on_compute_access(me.id(), ptr, shape(rows, cols, ld),
                                  /*write=*/false, site);
  }
  /// Declare a local compute write (a C tile, a GA access view).
  void declare_compute_write(
      Rank& me, const double* ptr, index_t rows, index_t cols, index_t ld,
      std::source_location site = std::source_location::current()) {
    if (checker_)
      checker_->on_compute_access(me.id(), ptr, shape(rows, cols, ld),
                                  /*write=*/true, site);
  }
  /// Declare a direct load/store reach-through into `region`'s segment on
  /// `owner`, starting `offset_elems` doubles into the segment.  The checker
  /// diagnoses reach-through to owners outside the caller's memory domain.
  void declare_direct_access(
      Rank& me, const SymmetricRegion& region, int owner, index_t offset_elems,
      index_t rows, index_t cols, index_t ld,
      std::source_location site = std::source_location::current());

 private:
  struct AllocRecord {
    std::vector<AlignedVector<double>> segs;
    std::vector<double*> bases;
    int arrived = 0;
    bool ready = false;
  };

  RmaHandle transfer(Rank& me, int owner, std::size_t bytes, bool is_get);

  /// The one issue path of every nb* call and of every retry: validate,
  /// charge the transfer, register with the checker, move the payload (or
  /// apply the accumulate) unless the attempt failed, count and trace.
  /// Each call is a fresh checker-visible operation.
  RmaHandle issue(Rank& me, const ReplayOp& op, std::source_location site);

  /// Shared completion path: retries failed attempts per retry_.
  /// throw_on_error turns an exhausted budget into srumma::Error.
  RmaStatus wait_impl(Rank& me, RmaHandle& h, bool throw_on_error,
                      std::source_location site);

  /// Checker footprint of a rows x cols patch of doubles with stride ld.
  [[nodiscard]] static check::Footprint shape(index_t rows, index_t cols,
                                              index_t ld) {
    check::Footprint f;
    if (rows > 0 && cols > 0) {
      f.rows = static_cast<std::uint64_t>(rows) * sizeof(double);
      f.cols = static_cast<std::uint64_t>(cols);
      f.ld = static_cast<std::uint64_t>(ld) * sizeof(double);
    }
    return f;
  }

  Team& team_;
  bool zero_copy_;
  RetryPolicy retry_;
  std::unique_ptr<check::RmaChecker> checker_;
  std::unique_ptr<cache::BlockCacheSet> cache_;
  std::mutex acc_mu_;  // serializes concurrent accumulate updates

  std::mutex alloc_mu_;
  std::condition_variable alloc_cv_;
  std::uint64_t alloc_cv_id_ = 0;  // abort-cv registry slot
  struct FreeRecord {
    int arrived = 0;
    std::vector<char> freed;  // per-rank marks for double-free detection
  };

  std::map<std::uint64_t, AllocRecord> live_allocs_;  // keyed by sequence id
  std::vector<std::uint64_t> next_alloc_seq_;         // per rank
  std::map<std::uint64_t, FreeRecord> free_arrivals_; // seq -> free progress
  std::vector<std::uint64_t> next_free_seq_;          // per rank
};

}  // namespace srumma
