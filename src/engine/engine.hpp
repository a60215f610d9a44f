#pragma once
// The task executor (docs/ENGINE.md).
//
// run_plan runs one ordered task list as the paper's double-buffered
// pipeline of nonblocking gets (Fig. 3): tasks run and commit strictly in
// plan order, with up to lookahead + 1 of them issued at once.  For each
// task it tops up the issue window, settles the head task's operands
// (wait, verify, finish the cache ref, re-arm a failed fetch in place),
// multiplies and releases.
//
// Operands live in slots.  An issued task shares any live slot that already
// holds its patch, so a patch read by consecutive tasks is fetched once (the
// paper's A-block reuse, Section 3.1).  EngineMode selects how long a
// fetched patch lives:
//
//   * Off, the window lifetime: while an issued task still reads it.  This
//     is the paper's double buffer; memory is O(window) and nothing is
//     tabulated per plan.
//   * On, the plan lifetime: until its last reader in the plan commits.  A
//     patch read again later in the plan is fetched once instead of once
//     per reuse run, at the price of holding it in between.  Under a slow
//     link that halves the makespan (bench_steal, docs/ENGINE.md §3).
//
// Each call runs one plan — a rank's own, or a recovery adopter's share of
// a dead domain's chains — and shares nothing with domain mates except
// through RMA, the block cache and the fault plane.

#include <cstddef>
#include <cstdint>
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
/// invariant).  Recovery adopts a dead rank's work chain by chain, and the
/// static analyzer (src/analysis) audits the exact chains recovery replays
/// — both call chain_layout, so the static model and the adoption cannot
/// drift.
struct ChainLayout {
  std::vector<int> task_tile;  ///< plan index -> tile id
  std::vector<int> task_pos;   ///< plan index -> position in its tile chain
  std::vector<std::vector<std::size_t>> tile_tasks;  ///< tile -> plan indices
  [[nodiscard]] int tiles() const {
    return static_cast<int>(tile_tasks.size());
  }
};

[[nodiscard]] ChainLayout chain_layout(const TaskPlan& plan);

/// Bits of later_reads: a later task in the plan reads the same A (resp.
/// B) patch.
inline constexpr std::uint8_t kLaterA = 1;
inline constexpr std::uint8_t kLaterB = 2;

/// Per plan index, which of the task's patches a later task reads again:
/// the plan lifetime keeps such a slot past the task's commit.  Shared with
/// the analyzer's replay, so the modeled and executed lifetimes agree.
[[nodiscard]] std::vector<std::uint8_t> later_reads(const TaskPlan& plan);

/// Operand buffers that must outlive one multiply.  srumma_multiply owns it
/// so that no operand buffer is freed before collect_result's closing
/// barriers: the happens-before race detector (docs/ANALYSIS.md) keys local
/// buffers by address, and a buffer freed earlier could be reallocated to
/// another rank whose fetches into it no barrier orders after this rank's
/// reads.  A released slot's buffer joins the spares, later fetches of the
/// same rank reuse them, and run_plan parks every buffer here on return, so
/// the rank's own run and a recovery adoption share one pool.
struct OperandPool {
  std::vector<Matrix> spare;
};

/// Execute one task plan and return the number of products it committed.
/// Two callers: srumma_multiply runs the rank's own plan into its local C
/// block (`c_decl` = C, so the checker sees the tile writes), and recovery
/// (engine/recovery.hpp) runs a survivor's share of a dead domain's chains
/// into an adopter-local scratch (`c_decl` = nullptr).  Each task's tile is
/// `c_dst.block(ci, cj, cm, cn)`; `c_dst` is empty in phantom mode.  The
/// caller owns the pool and the cooperative-cache epoch.  `opt` is the tuned
/// option set, whose `engine` selects the operand lifetime; `lookahead` is
/// the resolved prefetch depth (0 in blocking mode).
[[nodiscard]] std::size_t run_plan(Rank& me, DistMatrix& a, DistMatrix& b,
                                   MatrixView c_dst, DistMatrix* c_decl,
                                   const SrummaOptions& opt, int lookahead,
                                   const TaskPlan& plan, OperandPool& pool);

}  // namespace srumma::engine
