#pragma once
// Permanent-failure recovery orchestration (docs/FAULTS.md §7).
//
// When a kill is configured (SRUMMA_FAULT_KILL_*), srumma_multiply mirrors
// the operands onto the buddy domains before the kill hooks are armed
// (replicate_operands), and calls recover() once its executor completes
// (survivors finished their plans, zombies drained and bailed).  recover()
// runs the team-wide protocol:
//
//   1. pre-barrier — every in-flight operation is accounted;
//   2. uniform declaration — all ranks observe the tripped kill and declare
//      the domain dead (barrier-level failure detection: this also covers
//      the Barrier kill point, which fails no transfer, so the RMA
//      drain path alone would never detect it);
//   3. adoption — every survivor rebuilds the dead ranks' plans from the
//      layouts (a plan is a pure function of the rank id, the layouts and
//      the options, which srumma_multiply requires to be the same on every
//      rank), takes a deterministic, contiguous, affinity-weighted share of
//      their C-tile commit chains, seeds each chain's band of one scratch
//      matrix with the buddy replica's post-beta snapshot, runs the share
//      as one task plan through engine::run_plan (the same operand
//      acquire, settle and multiply the owner ran, in plan order per
//      chain, so each reconstructed tile is bitwise the fault-free result),
//      and stores the tiles back — the stores redirect into the buddy
//      replica, where gather_to serves dead-domain blocks from.

#include "core/options.hpp"
#include "dist/dist_matrix.hpp"
#include "engine/engine.hpp"

namespace srumma::engine {

/// Buddy replication of a kill-configured multiply's operands (docs/
/// FAULTS.md §7), run before the kill hooks are armed: mirrors A and B,
/// and C when `mirror_c` (otherwise C's replica segment is only
/// allocated), then one publication barrier.  Collective.
void replicate_operands(Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c,
                        bool mirror_c);

/// The recovery protocol above.  Collective: every rank (zombies included)
/// must call it after its executor returns, with the multiply's untuned
/// options; when the kill never tripped it degenerates to one barrier.
/// Adopter buffers and the scratch go to `pool`, so they outlive the
/// multiply's closing barriers.
void recover(Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c,
             const SrummaOptions& opt, OperandPool& pool);

}  // namespace srumma::engine
