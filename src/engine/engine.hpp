#pragma once
// Dependency-driven task engine with intra-domain work stealing
// (docs/ENGINE.md).
//
// The static pipeline in core/srumma.cpp executes the task plan strictly in
// order: task t waits on the fetches issued for slot t mod (lookahead+1),
// so one straggling get blocks every later task (head-of-line blocking).
// The engine replaces those index-arithmetic lifetime rules with explicit
// per-task operand ownership:
//
//   * every task owns references to its operand slots; a slot is fetched
//     once, shared by every consumer of the same patch, and released when
//     its last consumer commits;
//   * tasks execute out of order across C tiles — the scheduler picks the
//     issued task whose operands land earliest (completions are known at
//     issue time in the virtual-time model) — while each tile's products
//     commit in plan order, which keeps C bitwise-identical to the
//     pipeline's result;
//   * a failed operand is re-armed in place (fresh fetch, task stays where
//     it is), as in every executor (engine/operand.hpp);
//   * tasks with an out-of-domain operand are posted on a per-domain board;
//     an idle domain mate may steal one, fetch the operands itself, run the
//     product into a scratch tile seeded with the owner's current C tile,
//     and hand the finished tile back through shared memory.  The owner
//     commits it at the task's plan position, so stealing never perturbs
//     the numerics.  A steal is admitted only when the thief's projected
//     publish lands before the victim could run that work itself
//     (steal_admitted), so a steal never stalls its victim.
//
// Because steal decisions race in real time, the *modeled timing* of an
// engine run may vary run to run; the C result is structurally bitwise
// deterministic.  Tests that compare timings pin EngineMode::Off.

#include <cstddef>
#include <vector>

#include "core/options.hpp"
#include "core/task_plan.hpp"
#include "dist/dist_matrix.hpp"

namespace srumma::engine {

/// Resolve the tri-state engine option: On/Off are explicit; Auto defers to
/// the SRUMMA_ENGINE environment variable (unset or 0 = Off).
[[nodiscard]] bool selected(EngineMode mode);

/// The commit-chain structure of a plan: tasks grouped by C tile, each
/// tile's products committing in plan order (the bitwise-identity
/// invariant).  Exported so the static analyzer (src/analysis) audits the
/// exact chains run_plan executes — both call chain_layout, so the static
/// model and the executor cannot drift.
struct ChainLayout {
  std::vector<int> task_tile;  ///< plan index -> tile id
  std::vector<int> task_pos;   ///< plan index -> position in its tile chain
  std::vector<std::vector<std::size_t>> tile_tasks;  ///< tile -> plan indices
  [[nodiscard]] int tiles() const {
    return static_cast<int>(tile_tasks.size());
  }
};

[[nodiscard]] ChainLayout chain_layout(const TaskPlan& plan);

/// Plan indices run_plan posts on the domain steal board: tasks with an
/// out-of-domain operand, on machines with more than one rank per domain.
[[nodiscard]] std::vector<std::size_t> stealable_tasks(const TaskPlan& plan,
                                                       int domain_size);

/// One steal candidate as the admission test sees it (virtual seconds).
struct StealBid {
  double thief_now = 0.0;  ///< the thief's clock
  int cursor = 0;          ///< victim's commit count on the task's tile
  int pos = 0;             ///< the task's position in that tile's chain
  double pred_vt = 0.0;    ///< virtual time of the tile's latest commit
  double work_vt = 0.0;    ///< 2 x tile copy + operand fetch + gemm
  double horizon = 0.0;    ///< victim's lower bound on its next own work
};

/// Virtual-time steal admission (docs/ENGINE.md §3): a thief may claim a
/// task only if its projected publish, max(thief_now, pred_vt) + work_vt,
/// is no later than the victim's horizon — the earliest the victim could
/// commit that position itself.  An ahead-of-cursor position is always
/// denied: its predecessor commits no earlier than the horizon, so the
/// thief's publish would land after it.  The horizon only ever rises, so a
/// stale horizon can only deny.
[[nodiscard]] bool steal_admitted(const StealBid& bid);

/// Execute one rank's task plan through the engine.  Called from
/// srumma_multiply after tuning, plan construction and the beta pre-scale;
/// opens and closes its own cooperative-cache epoch, exactly like the
/// static pipeline.  `opt` is the tuned option set; `lookahead` is the
/// resolved prefetch depth (0 in blocking mode).
void run_plan(Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c,
              const SrummaOptions& opt, int lookahead, const TaskPlan& plan);

}  // namespace srumma::engine
