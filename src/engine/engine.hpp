#pragma once
// Dependency-driven task engine (docs/ENGINE.md).
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
//     it is), as in every executor (engine/operand.hpp).
//
// Each call runs one plan — a rank's own, or a recovery adopter's share of
// a dead domain's chains — and shares nothing with domain mates except
// through RMA, the block cache and the fault plane, so its modeled timing
// depends on host order exactly as the pipeline's does.

#include <cstddef>
#include <vector>

#include "core/options.hpp"
#include "core/task_plan.hpp"
#include "dist/dist_matrix.hpp"
#include "engine/operand.hpp"

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

/// The engine's operand storage for one multiply: one state per distinct
/// patch, and the buffers of released states, which later acquires of the
/// same rank reuse.  srumma_multiply owns it so that no operand buffer is
/// freed before collect_result's closing barriers: the happens-before race
/// detector (docs/ANALYSIS.md) keys local buffers by address, and a buffer
/// freed earlier could be reallocated to another rank whose fetches into it
/// no barrier orders after this rank's reads.  Each run_plan call appends
/// its states, so the rank's own run and a recovery adoption can share one
/// pool.
struct OperandPool {
  std::vector<OperandState> states;
  std::vector<Matrix> spare;
};

/// Execute one task plan through the engine and return the number of
/// products it committed.  Two callers: srumma_multiply runs the rank's
/// own plan into its local C block (`c_decl` = C, so the checker sees the
/// tile writes), and recovery (engine/recovery.hpp) runs a survivor's
/// share of a dead domain's chains into an adopter-local scratch
/// (`c_decl` = nullptr).  Each task's tile is `c_dst.block(ci, cj, cm,
/// cn)`; `c_dst` is empty in phantom mode.  The caller owns the pool and
/// the cooperative-cache epoch.  `opt` is the tuned option set;
/// `lookahead` is the resolved prefetch depth (0 in blocking mode).
[[nodiscard]] std::size_t run_plan(Rank& me, DistMatrix& a, DistMatrix& b,
                                   MatrixView c_dst, DistMatrix* c_decl,
                                   const SrummaOptions& opt, int lookahead,
                                   const TaskPlan& plan, OperandPool& pool);

}  // namespace srumma::engine
