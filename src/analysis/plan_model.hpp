#pragma once
// Static plan model for srumma-analyze (docs/ANALYSIS.md).
//
// A PlanModel is everything a SRUMMA run decides *before* touching data:
// the tuned option set, every rank's task plan and the commit-chain layout
// the engine would execute.  It is built from the same code paths the run
// uses —
// tune_options, the layout-based build_task_plan overload and
// engine::chain_layout — so the analyzed schedule cannot drift from the
// executed one.  No team, no allocation, no virtual clock.
//
// The mutation hooks seed one deliberate protocol fault into a model
// (negative testing for the analyzer itself): dropping an operand wait,
// reordering a commit-chain link, widening a get window past its task's
// footprint, or replaying an adopted dead rank's commit chain out of plan
// order (the recovery-side analogue of reorder-commit, docs/FAULTS.md §7).
// srumma-analyze must flag every class and certify clean models with zero
// findings.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/task_plan.hpp"
#include "engine/engine.hpp"
#include "machine/machine.hpp"

namespace srumma::analysis {

/// One configuration under analysis: a machine model, the user-visible
/// option set and the multiply shape C[m x n] += op(A) * op(B) over k.
struct AnalysisConfig {
  MachineModel machine = MachineModel::testing(1, 2);
  SrummaOptions options;
  index_t m = 0;
  index_t n = 0;
  index_t k = 0;
};

/// Everything one rank's executors would consume.
struct RankModel {
  int rank = -1;
  /// Option set after tune_options (k_chunk, lookahead, budget shrink).
  SrummaOptions tuned;
  /// Resolved prefetch depth: tuned.lookahead, or 0 in blocking mode —
  /// exactly srumma_multiply's dispatch value.
  int lookahead = 0;
  TaskPlan plan;
  engine::ChainLayout chains;

  // -- seeded faults (empty in clean models) --------------------------------
  /// Plan indices whose operand waits the pipeline "forgets" (the replay
  /// skips them; the analyzer must diagnose the use-before-wait class).
  std::vector<std::size_t> dropped_waits;
  /// Recovery model (docs/FAULTS.md §7): a dead rank's commit chain this
  /// rank would adopt and replay from the buddy replica.  `task_idxs` is
  /// the replay order over the DEAD rank's plan indices; recovery promises
  /// a bitwise-identical C, which holds only when it equals the dead
  /// rank's own chain_layout grouping exactly.
  struct AdoptedChain {
    int dead_rank = -1;
    std::size_t tile = 0;  ///< tile index in the dead rank's chain layout
    std::vector<std::size_t> task_idxs;
  };
  std::vector<AdoptedChain> adopted_chains;
};

struct PlanModel {
  AnalysisConfig cfg;
  MatrixLayout a;
  MatrixLayout b;
  MatrixLayout c;
  std::vector<RankModel> ranks;
};

/// Build the full team model: stored-operand layouts on the near-square
/// grid (the library's default distribution), then per rank the tuned
/// options, plan and chains.
[[nodiscard]] PlanModel build_plan_model(const AnalysisConfig& cfg);

/// Seeded protocol faults, one per dynamic diagnostic family the analyzer
/// must prove impossible on clean plans.
enum class Mutation {
  DropWait,        ///< pipeline skips one task's operand waits
  ReorderCommit,   ///< swap two adjacent commit-chain links
  WidenGetWindow,  ///< grow one get window past the task's footprint
  AdoptChain,      ///< survivor replays an adopted chain out of plan order
};

[[nodiscard]] const char* mutation_name(Mutation m);
[[nodiscard]] std::optional<Mutation> mutation_from_name(std::string_view s);

/// Apply one seeded fault to the model, choosing the site deterministically
/// from `seed`.  Returns a human-readable description of what was broken.
/// Requires a config where the class can occur at all (e.g. DropWait needs
/// at least one copy-path fetch) and fails loudly otherwise.
[[nodiscard]] std::string mutate_plan(PlanModel& pm, Mutation mut,
                                      std::uint64_t seed);

}  // namespace srumma::analysis
