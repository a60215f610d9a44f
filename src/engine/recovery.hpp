#pragma once
// Permanent-failure recovery orchestration (docs/FAULTS.md §7).
//
// When a kill is configured (SRUMMA_FAULT_KILL_*), srumma_multiply opens a
// RecoveryGuard for the multiply.  Before the kill hooks are armed, every
// rank deposits its task plan and tuned options here — so the plans of
// ranks that later fail-stop are always on record.  After the executor
// completes (survivors finished their plans, zombies drained and bailed),
// run() performs the team-wide recovery protocol:
//
//   1. pre-barrier — every in-flight operation is accounted;
//   2. uniform declaration — all ranks observe the tripped kill and declare
//      the domain dead (barrier-level failure detection: this also covers
//      the Barrier kill point, which fails no transfer, so the RMA
//      drain path alone would never detect it);
//   3. adoption — each survivor is assigned a deterministic, contiguous,
//      affinity-weighted range of the dead ranks' C-tile commit chains,
//      seeds a scratch tile with the buddy replica's post-beta snapshot,
//      replays the chain's block products in plan order (the same operand
//      acquire, settle and multiply the owner would have run, so the
//      reconstructed tile is bitwise the fault-free result), and stores it
//      back — the store redirects into the buddy replica, where gather_to
//      serves dead-domain blocks from.
//
// The guard registry is keyed by Team*: srumma_multiply's entry barrier
// precedes every construction and collect_result's barriers follow every
// destruction, so two multiplies never share a session.

#include <map>
#include <memory>
#include <mutex>

#include "core/options.hpp"
#include "core/task_plan.hpp"
#include "dist/dist_matrix.hpp"

namespace srumma::engine {

/// Buddy replication of a kill-configured multiply's operands (docs/
/// FAULTS.md §7), run before the kill hooks are armed: mirrors A and B,
/// and C when `mirror_c` (otherwise C's replica segment is only
/// allocated), then one publication barrier.  Collective.
void replicate_operands(Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c,
                        bool mirror_c);

class RecoveryGuard {
 public:
  explicit RecoveryGuard(Rank& me);
  ~RecoveryGuard();
  RecoveryGuard(const RecoveryGuard&) = delete;
  RecoveryGuard& operator=(const RecoveryGuard&) = delete;

  /// Record this rank's plan and tuned options for possible adoption.
  /// Must run before FaultPlane::arm_kills so a rank can never die
  /// undeposited.
  void deposit(Rank& me, const TaskPlan& plan, const SrummaOptions& opt);

  /// The recovery protocol above.  Collective: every rank (zombies
  /// included) must call it after its executor returns; when the kill
  /// never tripped it degenerates to one barrier.
  void run(Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c);

 private:
  struct Session;
  static std::mutex& registry_mu();
  static std::map<Team*, std::shared_ptr<Session>>& registry();
  Team* team_;
  std::shared_ptr<Session> ses_;
};

}  // namespace srumma::engine
