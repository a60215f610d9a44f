#include "core/task_plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <numeric>

#include "util/error.hpp"

namespace srumma {

std::vector<index_t> k_segment_bounds(const BlockDist1D& a_axis,
                                      const BlockDist1D& b_axis,
                                      index_t k_chunk) {
  SRUMMA_REQUIRE(a_axis.total() == b_axis.total(),
                 "k_segment_bounds: axes disagree on K");
  SRUMMA_REQUIRE(k_chunk >= 0, "k_chunk must be non-negative");
  const index_t k = a_axis.total();
  // A zero-length axis has no segments: the multiply degenerates to a beta
  // scaling of C, and every downstream consumer (build_task_plan's nseg,
  // the refinement loop below) expects a single bound, not a pair.
  if (k == 0) return {0};
  std::vector<index_t> bounds;
  bounds.push_back(0);
  bounds.push_back(k);
  // Interior owner boundaries of both axes.  A part with no elements
  // (k < parts) contributes no boundary: its start duplicates a
  // neighbour's, and with it the first/last non-empty parts of the axis
  // would emit degenerate leading/trailing cuts at 0 or k.  Skipping empty
  // parts makes the dedup below purely about boundaries the two axes
  // share, never about degenerate segments.
  for (const BlockDist1D* axis : {&a_axis, &b_axis}) {
    for (int p = 0; p < axis->parts(); ++p) {
      if (axis->count(p) > 0) bounds.push_back(axis->start(p));
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  if (k_chunk > 0) {
    std::vector<index_t> refined;
    for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
      for (index_t x = bounds[s]; x < bounds[s + 1]; x += k_chunk)
        refined.push_back(x);
    }
    refined.push_back(k);
    bounds = std::move(refined);
  }
  return bounds;
}

std::vector<index_t> tile_bounds(index_t n, index_t chunk) {
  SRUMMA_REQUIRE(n >= 0 && chunk >= 0, "tile_bounds: negative argument");
  std::vector<index_t> bounds;
  if (chunk == 0) chunk = std::max<index_t>(n, 1);
  for (index_t x = 0; x < n; x += chunk) bounds.push_back(x);
  bounds.push_back(n);
  return bounds;
}

index_t auto_k_chunk(const MatrixLayout& a, const MatrixLayout& b,
                     blas::Trans ta, blas::Trans tb) {
  const BlockDist1D& a_k = ta == blas::Trans::Yes ? a.rows : a.cols;
  const BlockDist1D& b_k = tb == blas::Trans::Yes ? b.cols : b.rows;
  SRUMMA_REQUIRE(a_k.total() == b_k.total(),
                 "auto_k_chunk: operand K axes disagree");
  const index_t k = a_k.total();
  // The k_segment_bounds cut uses the union of both axes' owner
  // boundaries; the finer of the two bounds the number of first-touch gets.
  const index_t k_owners = std::max(a_k.parts(), b_k.parts());
  return std::clamp<index_t>(k / (4 * k_owners), 64, 512);
}

SrummaOptions tune_options(int rank, const MachineModel& mm,
                           const MatrixLayout& a, const MatrixLayout& b,
                           const MatrixLayout& c, const SrummaOptions& opt) {
  SrummaOptions tuned = opt;
  if (tuned.k_chunk == 0) {
    // Auto block size derived from the K-axis owner segmentation of the
    // stored operands (see auto_k_chunk).  This reproduces the paper's
    // empirically-tuned block size at the model level.
    tuned.k_chunk = auto_k_chunk(a, b, opt.ta, opt.tb);
  }

  if (tuned.lookahead == 0) {
    // Auto prefetch depth: keep enough patches in flight to cover the
    // network's latency-bandwidth product (one get's payload per slot), so
    // the pipeline never drains while an issue is still paying t_s.  A
    // patch is roughly (local C extent, capped by c_chunk) x k_chunk
    // doubles.
    index_t est_rows =
        std::max({c.block_rows(rank), c.block_cols(rank), index_t{1}});
    if (tuned.c_chunk > 0) est_rows = std::min(est_rows, tuned.c_chunk);
    const double patch_bytes =
        static_cast<double>(est_rows) *
        static_cast<double>(std::max<index_t>(tuned.k_chunk, 1)) *
        static_cast<double>(sizeof(double));
    tuned.lookahead = std::clamp(
        static_cast<int>(std::ceil(mm.net_latency * mm.net_bw / patch_bytes)),
        1, 8);
  }

  if (tuned.max_buffer_bytes > 0) {
    // Shrink the tiling until 2 lookahead + 3 patches of the worst-case
    // extents fit the budget, a margin over the window lifetime's
    // 2 (lookahead+1) live patches.  Patch extents are bounded by
    // (c_chunk x k_chunk), so halve both until they fit (floor 8 to keep
    // dgemm calls non-degenerate).
    const std::uint64_t slots =
        2 * static_cast<std::uint64_t>(tuned.lookahead) + 3;
    const index_t m_local = c.block_rows(rank);
    const index_t n_local = c.block_cols(rank);
    if (tuned.c_chunk == 0)
      tuned.c_chunk = std::max<index_t>(m_local, n_local);
    while (slots * static_cast<std::uint64_t>(
                       std::min(tuned.c_chunk,
                                std::max(m_local, n_local))) *
                   static_cast<std::uint64_t>(tuned.k_chunk) * sizeof(double) >
               tuned.max_buffer_bytes &&
           (tuned.c_chunk > 8 || tuned.k_chunk > 8)) {
      if (tuned.c_chunk > 8) tuned.c_chunk = (tuned.c_chunk + 1) / 2;
      if (tuned.k_chunk > 8) tuned.k_chunk = (tuned.k_chunk + 1) / 2;
    }
  }
  return tuned;
}

TaskPlan build_task_plan(Rank& me, const DistMatrix& a, const DistMatrix& b,
                         const DistMatrix& c, const SrummaOptions& opt) {
  // Delegate to the metadata-only builder: DistMatrix's ownership and
  // domain queries are its layout's, so this is the identical plan.
  return build_task_plan(me.id(), me.machine(), a.layout(), b.layout(),
                         c.layout(), opt);
}

TaskPlan build_task_plan(int rank, const MachineModel& mm,
                         const MatrixLayout& a, const MatrixLayout& b,
                         const MatrixLayout& c, const SrummaOptions& opt) {
  const bool tra = opt.ta == blas::Trans::Yes;
  const bool trb = opt.tb == blas::Trans::Yes;

  // Conformance: op(A) is m x k, op(B) is k x n, C is m x n.
  const index_t m = c.m;
  const index_t n = c.n;
  const index_t k = tra ? a.m : a.n;
  SRUMMA_REQUIRE((tra ? a.n : a.m) == m,
                 "srumma: op(A) row count must match C rows");
  SRUMMA_REQUIRE((trb ? b.m : b.n) == n,
                 "srumma: op(B) column count must match C cols");
  SRUMMA_REQUIRE((trb ? b.n : b.m) == k,
                 "srumma: op(A) and op(B) inner dimensions must conform");

  // K axis distributions of the stored matrices.
  const BlockDist1D& a_k_axis = tra ? a.rows : a.cols;
  const BlockDist1D& b_k_axis = trb ? b.cols : b.rows;

  const std::vector<index_t> ks =
      k_segment_bounds(a_k_axis, b_k_axis, opt.k_chunk);

  // My C block in global coordinates.
  const index_t r0 = c.block_row_start(rank);
  const index_t c0 = c.block_col_start(rank);
  const index_t cm_all = c.block_rows(rank);
  const index_t cn_all = c.block_cols(rank);
  const std::vector<index_t> is = tile_bounds(cm_all, opt.c_chunk);
  const std::vector<index_t> js = tile_bounds(cn_all, opt.c_chunk);

  TaskPlan plan;
  plan.k_total = k;

  auto emit = [&](std::size_t ti, std::size_t tj, std::size_t s) {
    Task t;
    t.ci = is[ti];
    t.cm = is[ti + 1] - is[ti];
    t.cj = js[tj];
    t.cn = js[tj + 1] - js[tj];
    t.k0 = ks[s];
    t.kk = ks[s + 1] - ks[s];
    if (t.cm == 0 || t.cn == 0 || t.kk == 0) return;

    const index_t gi = r0 + t.ci;  // global C-row range of the tile
    const index_t gj = c0 + t.cj;  // global C-col range of the tile
    // A patch: op(A)[gi : gi+cm, k0 : k0+kk] in stored coordinates.
    if (tra) {
      t.a_i0 = t.k0; t.a_j0 = gi; t.a_m = t.kk; t.a_n = t.cm;
    } else {
      t.a_i0 = gi; t.a_j0 = t.k0; t.a_m = t.cm; t.a_n = t.kk;
    }
    // B patch: op(B)[k0 : k0+kk, gj : gj+cn] in stored coordinates.
    if (trb) {
      t.b_i0 = gj; t.b_j0 = t.k0; t.b_m = t.cn; t.b_n = t.kk;
    } else {
      t.b_i0 = t.k0; t.b_j0 = gj; t.b_m = t.kk; t.b_n = t.cn;
    }
    t.a_in_domain = a.rect_in_domain(mm, rank, t.a_i0, t.a_j0, t.a_m, t.a_n);
    t.b_in_domain = b.rect_in_domain(mm, rank, t.b_i0, t.b_j0, t.b_m, t.b_n);
    t.a_owner = a.owner(t.a_i0, t.a_j0);
    t.b_owner = b.owner(t.b_i0, t.b_j0);
    t.a_owner_col = a.grid.coords_of(t.a_owner).second;

    plan.max_a_m = std::max(plan.max_a_m, t.a_m);
    plan.max_a_n = std::max(plan.max_a_n, t.a_n);
    plan.max_b_m = std::max(plan.max_b_m, t.b_m);
    plan.max_b_n = std::max(plan.max_b_n, t.b_n);
    plan.tasks.push_back(t);
  };

  const std::size_t nseg = ks.size() - 1;
  if (opt.ordering.a_reuse) {
    // (ci, k, cj): consecutive tasks share the A patch across C tiles.
    for (std::size_t ti = 0; ti + 1 < is.size(); ++ti)
      for (std::size_t s = 0; s < nseg; ++s)
        for (std::size_t tj = 0; tj + 1 < js.size(); ++tj)
          emit(ti, tj, s);
  } else {
    for (std::size_t ti = 0; ti + 1 < is.size(); ++ti)
      for (std::size_t tj = 0; tj + 1 < js.size(); ++tj)
        for (std::size_t s = 0; s < nseg; ++s)
          emit(ti, tj, s);
  }

  order_tasks(plan.tasks, opt.ordering,
              c.grid.coords_of(rank).first % a.grid.q);
  return plan;
}

void order_tasks(std::vector<Task>& tasks, const OrderingPolicy& policy,
                 int diag_col) {
  if (tasks.empty()) return;

  auto remote_begin = tasks.begin();
  if (policy.shm_first) {
    remote_begin = std::stable_partition(
        tasks.begin(), tasks.end(), [](const Task& t) { return t.in_domain(); });
  }
  if (policy.diagonal_shift && remote_begin != tasks.end()) {
    // Start the remote run at a task fetching from the "diagonal" A owner
    // column, so the ranks of one node hit distinct source nodes first
    // (paper Fig. 4).  Rotation preserves the relative cyclic order (and
    // thus A-reuse runs, up to the single split point).
    auto pivot = std::find_if(remote_begin, tasks.end(), [&](const Task& t) {
      return t.a_owner_col == diag_col;
    });
    if (pivot != tasks.end() && pivot != remote_begin) {
      std::rotate(remote_begin, pivot, tasks.end());
    }
  }
  if (policy.a_group && remote_begin != tasks.end()) {
    // Make every set of remote tasks sharing one A patch contiguous, keyed
    // by first occurrence in the (possibly rotated) run.  The rotation can
    // cut exactly one A-reuse run in two, with the severed head at the
    // tail; the stable regroup splices it back without disturbing the
    // inter-patch order the rotation established.  Adjacent same-patch
    // fetches also arrive at the cooperative block cache back to back,
    // turning the duplicate gets of domain mates into in-flight joins.
    //
    // One map lookup per task gives it its patch's first-seen index, and a
    // stable counting sort on that index places the tasks.  A run whose
    // indices already ascend is grouped and stays as it is.
    std::map<std::array<index_t, 4>, std::size_t> first_seen;
    std::vector<std::size_t> group;
    group.reserve(static_cast<std::size_t>(tasks.end() - remote_begin));
    for (auto it = remote_begin; it != tasks.end(); ++it) {
      group.push_back(
          first_seen
              .emplace(std::array{it->a_i0, it->a_j0, it->a_m, it->a_n},
                       first_seen.size())
              .first->second);
    }
    if (!std::is_sorted(group.begin(), group.end())) {
      std::vector<std::size_t> slot(first_seen.size() + 1, 0);
      for (std::size_t g : group) ++slot[g + 1];
      std::partial_sum(slot.begin(), slot.end(), slot.begin());
      const std::vector<Task> run(remote_begin, tasks.end());
      for (std::size_t i = 0; i < run.size(); ++i)
        remote_begin[static_cast<std::ptrdiff_t>(slot[group[i]]++)] = run[i];
    }
  }
}

}  // namespace srumma
