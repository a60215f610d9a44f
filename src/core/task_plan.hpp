#pragma once
// SRUMMA task decomposition and ordering (paper Section 3.1, steps 1-2).
//
// Owner-computes: the rank holding block C_ij performs every product that
// accumulates into it.  The K dimension is cut at every A-panel and B-panel
// owner boundary (so each task's A and B patches each have a well-defined
// primary owner), then optionally re-chunked to opt.k_chunk; the local C
// block is optionally tiled to opt.c_chunk.  One task is one
//     C_tile += op(A)[rows(C_tile), kseg] * op(B)[kseg, cols(C_tile)]
// block product; the patches are fetched with generalized gets (or viewed
// in place within the shared-memory domain).
//
// The ordering pass is pure and separately unit-tested: shared-memory tasks
// first, diagonal-shift rotation of the remote run, A-reuse grouping via
// the generation order.

#include <vector>

#include "core/options.hpp"
#include "dist/dist_matrix.hpp"
#include "machine/machine.hpp"

namespace srumma {

/// One block product assigned to this rank.
struct Task {
  // C tile, relative to my local C block.
  index_t ci = 0, cj = 0, cm = 0, cn = 0;
  // K segment in global coordinates.
  index_t k0 = 0, kk = 0;
  // A and B patches in *stored* coordinates (transposition already applied
  // to the rectangle, not to the data).
  index_t a_i0 = 0, a_j0 = 0, a_m = 0, a_n = 0;
  index_t b_i0 = 0, b_j0 = 0, b_m = 0, b_n = 0;
  // Locality classification for ordering and flavor selection.
  bool a_in_domain = false;
  bool b_in_domain = false;
  int a_owner = -1;      ///< owner of the A patch's upper-left element
  int b_owner = -1;
  int a_owner_col = -1;  ///< grid column of a_owner in A's grid

  [[nodiscard]] bool in_domain() const { return a_in_domain && b_in_domain; }
  [[nodiscard]] bool same_a_patch(const Task& o) const {
    return a_i0 == o.a_i0 && a_j0 == o.a_j0 && a_m == o.a_m && a_n == o.a_n;
  }
};

struct TaskPlan {
  std::vector<Task> tasks;
  // Buffer sizing: maximum stored-coordinate patch extents over all tasks.
  index_t max_a_m = 0, max_a_n = 0;
  index_t max_b_m = 0, max_b_n = 0;
  index_t k_total = 0;  ///< inner dimension of the multiply
};

/// Cut [0, k) at every boundary of both 1-D distributions, then re-chunk
/// segments longer than k_chunk (0 = no re-chunking).  Returns segment
/// start offsets plus a final sentinel k.
[[nodiscard]] std::vector<index_t> k_segment_bounds(const BlockDist1D& a_axis,
                                                    const BlockDist1D& b_axis,
                                                    index_t k_chunk);

/// Split [0, n) into tiles of at most `chunk` (0 = single tile).  Returns
/// tile start offsets plus a final sentinel n.
[[nodiscard]] std::vector<index_t> tile_bounds(index_t n, index_t chunk);

/// Auto-tuned K block size: ~4 pipeline tasks per K-axis owner segment
/// keeps the first (unoverlapped) get small and the later gets hidden,
/// without dropping below a latency-amortizing floor.  The divisor is the
/// actual K-axis owner count of the stored operands (k_segment_bounds cuts
/// there), *not* C's grid edge — on nonsquare grids and transposed
/// operands the two differ and the grid edge mis-sizes the pipeline.
[[nodiscard]] index_t auto_k_chunk(const MatrixLayout& a, const MatrixLayout& b,
                                   blas::Trans ta, blas::Trans tb);

/// Resolve the auto-tuned option fields exactly as srumma_multiply does:
/// k_chunk from the K-axis owner segmentation, lookahead from the
/// latency-bandwidth product, and the max_buffer_bytes shrink loop over
/// (c_chunk, k_chunk).  Pure in the machine/layout inputs, so the analyzer
/// sees the pipeline depth the run would use.  Tuning is per rank — block
/// extents differ — so team-wide static bounds take the max.
///
/// Purity is a contract shared with build_task_plan: both read only the
/// rank id, the machine model, the three layouts and the options — no
/// environment variable, no fault-plane state (a dead domain changes who
/// runs a plan, not the plan), no clock and no trace.  srumma_multiply
/// keeps their result on C (PlanMemo) and reuses it for every later
/// multiply with equal inputs; a new input must join the memo's key.
[[nodiscard]] SrummaOptions tune_options(int rank, const MachineModel& mm,
                                         const MatrixLayout& a,
                                         const MatrixLayout& b,
                                         const MatrixLayout& c,
                                         const SrummaOptions& opt);

/// Build this rank's task list in generation order: A-reuse policy picks
/// the loop nest (ci, k, cj) so consecutive tasks share the A patch,
/// otherwise (ci, cj, k).
[[nodiscard]] TaskPlan build_task_plan(Rank& me, const DistMatrix& a,
                                       const DistMatrix& b,
                                       const DistMatrix& c,
                                       const SrummaOptions& opt);

/// Metadata-only overload: the plan `rank` would build against the given
/// layouts and machine.  The live overload above delegates here, so the two
/// can never disagree.
[[nodiscard]] TaskPlan build_task_plan(int rank, const MachineModel& mm,
                                       const MatrixLayout& a,
                                       const MatrixLayout& b,
                                       const MatrixLayout& c,
                                       const SrummaOptions& opt);

/// Reorder in place per the policy.  `diag_col` is the A-grid column this
/// rank's diagonal-shift rotation should start fetching from (pi mod
/// A.grid.q); pure so it can be property-tested.  a_group additionally
/// buckets the remote run by A-patch identity in first-occurrence order,
/// repairing the one run the rotation may have split.
void order_tasks(std::vector<Task>& tasks, const OrderingPolicy& policy,
                 int diag_col);

}  // namespace srumma
