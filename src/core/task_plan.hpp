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

#include <optional>
#include <vector>

#include "core/options.hpp"
#include "dist/dist_matrix.hpp"
#include "machine/machine.hpp"

namespace srumma {

/// Metadata-only mirror of a DistMatrix's distribution: dimensions, process
/// grid and 1-D block maps, answering exactly the ownership and domain
/// queries the plan builder asks a live matrix.  The static analyzer
/// (src/analysis, srumma-analyze) builds plans from layouts alone — no
/// allocation, no team, no virtual clock — and because the live overloads
/// below delegate to the layout-based ones, the analyzed plan is the plan
/// a run would execute, not a reimplementation that could drift.
struct MatrixLayout {
  index_t m = 0;  ///< stored rows
  index_t n = 0;  ///< stored cols
  ProcGrid grid;
  BlockDist1D rows{0, 1};
  BlockDist1D cols{0, 1};

  MatrixLayout() = default;
  MatrixLayout(index_t m_, index_t n_, ProcGrid g)
      : m(m_), n(n_), grid(g), rows(m_, g.p), cols(n_, g.q) {}

  [[nodiscard]] int owner(index_t i, index_t j) const {
    return grid.rank_of(rows.owner(i), cols.owner(j));
  }
  [[nodiscard]] index_t block_row_start(int rank) const {
    return rows.start(grid.coords_of(rank).first);
  }
  [[nodiscard]] index_t block_rows(int rank) const {
    return rows.count(grid.coords_of(rank).first);
  }
  [[nodiscard]] index_t block_col_start(int rank) const {
    return cols.start(grid.coords_of(rank).second);
  }
  [[nodiscard]] index_t block_cols(int rank) const {
    return cols.count(grid.coords_of(rank).second);
  }
  /// Every owner block the rectangle touches lies in `rank`'s domain
  /// (mirrors DistMatrix::rect_in_domain; empty rectangles are in-domain).
  [[nodiscard]] bool rect_in_domain(const MachineModel& mm, int rank,
                                    index_t i0, index_t j0, index_t mi,
                                    index_t nj) const;
  /// The rectangle lies within one owner block AND that owner is in
  /// `rank`'s domain (mirrors DistMatrix::single_owner_in_domain — the
  /// Direct-flavor reach-through eligibility test).
  [[nodiscard]] std::optional<int> single_owner_in_domain(
      const MachineModel& mm, int rank, index_t i0, index_t j0, index_t mi,
      index_t nj) const;
};

/// The layout of a live matrix (for feeding the pure overloads below).
[[nodiscard]] MatrixLayout layout_of(const DistMatrix& m);

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
[[nodiscard]] index_t auto_k_chunk(const DistMatrix& a, const DistMatrix& b,
                                   blas::Trans ta, blas::Trans tb);
[[nodiscard]] index_t auto_k_chunk(const MatrixLayout& a, const MatrixLayout& b,
                                   blas::Trans ta, blas::Trans tb);

/// Resolve the auto-tuned option fields exactly as srumma_multiply does:
/// k_chunk from the K-axis owner segmentation, lookahead from the
/// latency-bandwidth product, and the max_buffer_bytes shrink loop over
/// (c_chunk, k_chunk).  Pure in the machine/layout inputs, so the analyzer
/// sees the pipeline depth the run would use.  Tuning is per rank — block
/// extents differ — so team-wide static bounds take the max.
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
