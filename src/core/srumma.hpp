#pragma once
// SRUMMA — Shared and Remote-memory based Universal Matrix Multiplication
// Algorithm (Krishnan & Nieplocha, IPDPS 2004).
//
// Computes C := alpha * op(A) * op(B) + beta * C over block-distributed
// matrices using only one-sided communication:
//
//   1. each rank builds the task list of block products that accumulate
//      into its own C block ("owner computes", eq. 4);
//   2. the list is reordered — shared-memory-domain tasks first, then the
//      remote run rotated by the diagonal shift (Fig. 4) and grouped for
//      A-block reuse;
//   3. a double-buffered pipeline issues the nonblocking get for the next
//      task's patches while dgemm runs on the current task (Fig. 3);
//      within the shared-memory domain, patches are either passed to dgemm
//      in place (Direct flavor — Altix) or block-copied first (Copy flavor
//      — Cray X1, whose remote memory is not cacheable).
//
// No rank ever coordinates with the owners of the blocks it reads: there is
// no sender-side code at all, which is exactly what distinguishes SRUMMA
// from Cannon/SUMMA-style message passing.
//
// srumma_multiply is an SPMD collective: every rank of the team must call
// it with the same matrices and options.

#include "core/options.hpp"
#include "core/task_plan.hpp"
#include "dist/dist_matrix.hpp"
#include "trace/report.hpp"

namespace srumma {

/// Steps 1-2 for one rank, kept on the C operand (DistMatrix::plan_memo).
/// tune_options and build_task_plan are pure in (rank, machine, layouts,
/// options), and C fixes the machine and its own layout, so a multiply
/// into the same C whose Key equals the memo's reuses the tuned options and
/// the plan; any other multiply plans afresh and replaces the memo, which
/// is const once built.
struct PlanMemo {
  struct Key {
    int rank = -1;
    MatrixLayout a;
    MatrixLayout b;
    SrummaOptions opt;  ///< the caller's, before tuning
    bool operator==(const Key&) const = default;
  };
  Key key;
  SrummaOptions tuned;
  TaskPlan plan;
};

/// Parallel matrix multiplication; returns identical results on all ranks.
/// Keeps this rank's task plan on `c` (PlanMemo), so repeating a multiply
/// into the same C plans only once.
MultiplyResult srumma_multiply(Rank& me, DistMatrix& a, DistMatrix& b,
                               DistMatrix& c,
                               const SrummaOptions& opt = SrummaOptions{});

}  // namespace srumma
