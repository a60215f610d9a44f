#pragma once
// The per-task steps every executor shares: operand acquisition, settling
// and the block product.
//
// One OperandState is one acquired patch of A or B: either a direct
// (in-place) view of a peer's block, or a copy fetched into a local buffer
// with a (possibly) nonblocking generalized get, optionally routed through
// the cooperative block cache.  The static pipeline (core/srumma.cpp) owns
// a rotating pool of these; the dependency-driven engine (engine/engine.cpp)
// hands each task-graph operand its own refcounted state, for a rank's own
// plan and for a recovery adopter's share of a dead domain's chains alike.
// Both executors acquire, re-arm and multiply through the functions below —
// that is what makes their C results and fault behavior comparable.
//
// Accounting note: acquire() deliberately bumps no task-classification
// counters.  copy_tasks / direct_tasks count *block products* and are
// classified at execution time by multiply() (both operands direct ->
// direct, else copy), so the identity
//     copy_tasks + direct_tasks == executed block products
// holds exactly even under fetch re-arms and A-patch reuse.

#include <array>
#include <cstddef>
#include <cstdint>

#include "cache/block_cache.hpp"
#include "core/options.hpp"
#include "core/task_plan.hpp"
#include "dist/dist_matrix.hpp"

namespace srumma::engine {

// One acquired operand patch: either a direct (in-place) view of a peer's
// block, or a copy fetched into a local buffer.
struct OperandState {
  Matrix buf;            // backing storage for the copy path
  PatchHandle handle;    // pending fetch (copy path only)
  ConstMatrixView view;  // what dgemm will read (empty in phantom mode)
  // Patch identity, for A-reuse matching.
  index_t i0 = -1, j0 = -1, m = -1, n = -1;
  bool valid = false;
  bool direct = false;
  // The fetch behind this state exhausted its RMA retries: the buffer
  // contents are unreliable until the state is re-armed (re-acquired in
  // place), and matches() refuses to pair a new task with it.
  bool failed = false;
  // Cooperative-cache participation of the current acquire (inactive when
  // the cache is off, the patch is in-domain, or the path is direct).
  cache::Ref cache_ref;
  double rate_factor = 1.0;  // dgemm rate multiplier for direct access
  // Modeled buffer capacity this state has grown to via copy-path
  // acquires (tracked even in phantom mode, where nothing is allocated).
  std::uint64_t cap_bytes = 0;
  // Highest task index that reads this state (pipeline executor only).  A
  // state may only be evicted (refetched with a different patch) once that
  // task has been computed — reuse runs can keep a buffer live across many
  // pipeline slots.
  std::ptrdiff_t last_user = -1;

  [[nodiscard]] bool matches(index_t pi0, index_t pj0, index_t pm,
                             index_t pn) const {
    return valid && !failed && i0 == pi0 && j0 == pj0 && m == pm && n == pn;
  }
};

/// Acquire a patch of `mat` into `st` (direct view or nonblocking fetch).
void acquire(Rank& me, DistMatrix& mat, index_t i0, index_t j0, index_t mi,
             index_t nj, ShmFlavor flavor, OperandState& st);

/// Checksum stand-in for a freshly fetched copy-path patch: compare the
/// buffer against the owners' (quiescent) segments and refetch on mismatch.
/// Bounded — a refetch draws fresh fault decisions and can be corrupted
/// again, but 16 consecutive corruptions at any sane injection rate means
/// the configuration is broken, not unlucky.  A refetch that itself
/// exhausts its RMA retries marks the state failed so settle() re-arms it.
void verify_operand(Rank& me, DistMatrix& mat, OperandState& st);

/// Cooperative-cache epilogue for one operand state, run after the executor
/// waited on (and possibly verified) its own fetch and before a failed
/// state is re-armed (so a failed fetcher always releases its pin, leaving
/// a dirty entry for the next requester to re-arm).  Sharers pay the
/// intra-domain copy here and register the read with the checker at the
/// true origin; fetchers publish when the final bytes are known good —
/// verified against the owner, or delivered with no piece corrupted — and a
/// late (post-recovery) publish otherwise stays dirty.
void finish_cache(Rank& me, DistMatrix& mat, OperandState& st, bool fetched,
                  bool verify);

/// Cap on re-arm rounds: a transfer that keeps failing after its RMA
/// retries means a broken configuration, not bad luck.  Each executor run
/// has one budget of 4 x tasks + 16 (a recovery adopter's plan included);
/// an adopter gives each replica seed and tile store its own 16, and
/// srumma_multiply's buddy-replication gets share 16.
struct ReissueBudget {
  std::size_t cap;
  const char* exhausted;  ///< the error message once `cap` is spent
  std::size_t used = 0;

  /// Charge one round: throws past the cap, else counts one task_reissues
  /// and traces one TaskRearm instant (arg = `idx`, the task index).
  void charge(Rank& me, std::uint64_t idx);
};

/// Make task `t`'s acquired operands consumable: wait A, wait B, verify
/// both fresh fetches when opt.verify_checksums is set, finish both cache
/// refs.  While an operand is failed, charge `budget` one round and
/// re-acquire only that operand, in place, then settle again — so every
/// consumer of a shared state (pipeline A reuse) reads the re-armed bytes.
/// Returns false, with nothing pending, once this rank's own domain is
/// killed (fail-stop: the caller bails to its drain).
[[nodiscard]] bool settle(Rank& me, DistMatrix& a, DistMatrix& b,
                          const Task& t, const SrummaOptions& opt,
                          OperandState& sa, OperandState& sb,
                          ReissueBudget& budget, std::uint64_t idx);

/// One block product dst += alpha op(A) op(B) from settled operands: the
/// checker's operand-read declarations, plus the write of `dst` when `c`
/// is given (an adopter's scratch tile is not a C segment), the
/// dgemm (skipped in phantom mode), its modeled time, and the product's
/// direct/copy classification.
void multiply(Rank& me, const SrummaOptions& opt, DistMatrix& a,
              DistMatrix& b, DistMatrix* c, const Task& t,
              const OperandState& sa, const OperandState& sb, MatrixView dst);

/// Default cache capacity of one executor epoch: every domain mate's
/// worst-case operand slots, so single-flight sharing is never starved by
/// its own working set.
[[nodiscard]] std::uint64_t executor_cache_cap(const MachineModel& mm,
                                               const TaskPlan& plan,
                                               int lookahead);

/// The cooperative block caches of A and B, opened for one epoch (A and B
/// may live on different runtimes; each distinct cache opens once).  Must
/// start after a barrier that separates multiplies.  `keep_warm`: see
/// cache::BlockCacheSet::begin_epoch / end_epoch.
class CacheEpoch {
 public:
  CacheEpoch(Rank& me, DistMatrix& a, DistMatrix& b, std::uint64_t cap,
             bool keep_warm = false);
  void close(Rank& me, bool keep_warm = false);

 private:
  std::array<cache::BlockCacheSet*, 2> sets_;
};

/// Zombie drain of one operand state: complete its in-flight handle and
/// release its cache ref, discarding the data, so the domain's cache and
/// checker state stay balanced.
void drain(Rank& me, DistMatrix& mat, OperandState& st);

}  // namespace srumma::engine
