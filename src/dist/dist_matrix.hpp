#pragma once
// Distributed dense matrix over a process grid (the Global-Arrays-style
// substrate SRUMMA operates on).
//
// Each rank owns one contiguous block; storage comes from the RMA layer's
// collective symmetric allocation, so every rank knows every block's base
// pointer.  Access paths:
//
//   * local_view()      — my own block, direct;
//   * direct_view()     — a peer's block region by load/store, legal only
//                         within my shared-memory domain (the paper's
//                         "direct access" flavor on Altix / Cray X1);
//   * fetch_nb()/wait() — a *generalized get* of any global rectangle: one
//                         nonblocking RMA get per intersected owner block
//                         (how GA's NGA_Get works, and how SRUMMA fetches
//                         its A_ik / B_kj panels).
//
// A DistMatrix is a per-rank value object describing one global array;
// every rank constructs it collectively with identical metadata (its
// MatrixLayout).
//
// Phantom mode allocates no data and moves no bytes but charges full
// communication costs — the model-only benches run N=16000-class problems
// through the identical code path this way.

#include <memory>
#include <optional>
#include <vector>

#include "dist/grid.hpp"
#include "machine/machine.hpp"
#include "rma/rma.hpp"
#include "runtime/team.hpp"
#include "util/matrix.hpp"

namespace srumma {

/// Completion handle for a generalized (multi-owner) patch fetch.
struct PatchHandle {
  std::vector<RmaHandle> pieces;
  bool pending = false;

  /// Latest completion time across the pieces (0 when empty).
  [[nodiscard]] double completion() const {
    double c = 0.0;
    for (const auto& h : pieces) c = std::max(c, h.completion);
    return c;
  }
};

/// A distributed matrix's metadata: dimensions, process grid and 1-D block
/// maps, with the ownership and domain queries.  DistMatrix keeps its
/// distribution in one of these, and the static analyzer (src/analysis,
/// srumma-analyze) builds plans from layouts alone — no allocation, no
/// team, no virtual clock — so the analyzed plan is the plan a run would
/// execute.
struct MatrixLayout {
  index_t m = 0;  ///< stored rows
  index_t n = 0;  ///< stored cols
  ProcGrid grid;
  BlockDist1D rows;
  BlockDist1D cols;

  MatrixLayout() = default;
  MatrixLayout(index_t m_, index_t n_, ProcGrid g)
      : m(m_), n(n_), grid(g), rows(m_, g.p), cols(n_, g.q) {}

  bool operator==(const MatrixLayout&) const = default;

  /// Owning rank of global element (i, j).
  [[nodiscard]] int owner(index_t i, index_t j) const {
    return grid.rank_of(rows.owner(i), cols.owner(j));
  }
  /// Global row/column range owned by `rank`.
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
  /// Throws srumma::Error unless [i0, i0+mi) x [j0, j0+nj) lies within the
  /// matrix.
  void check_rect(index_t i0, index_t j0, index_t mi, index_t nj) const;
  /// Every owner block the rectangle touches lies in `rank`'s domain
  /// (empty rectangles are in-domain).
  [[nodiscard]] bool rect_in_domain(const MachineModel& mm, int rank,
                                    index_t i0, index_t j0, index_t mi,
                                    index_t nj) const;
  /// The owner rank when the rectangle lies in exactly one block whose
  /// owner shares `rank`'s memory domain — i.e. direct load/store access is
  /// possible; nullopt otherwise.
  [[nodiscard]] std::optional<int> single_owner_in_domain(
      const MachineModel& mm, int rank, index_t i0, index_t j0, index_t mi,
      index_t nj) const;
};

/// srumma_multiply's per-rank plan memo (core/srumma.hpp).  Declared here
/// only so a C operand can hold one: dist never looks inside.
struct PlanMemo;

class DistMatrix {
 public:
  /// Collective constructor: every rank of the team must call with the same
  /// (m, n, grid, phantom); grid.size() must equal the team size.
  DistMatrix(RmaRuntime& rma, Rank& me, index_t m, index_t n, ProcGrid grid,
             bool phantom = false);

  /// Collective destruction of the backing storage.  Optional — storage is
  /// otherwise reclaimed when the RmaRuntime is destroyed.
  void destroy(Rank& me);

  [[nodiscard]] const MatrixLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] index_t rows() const noexcept { return layout_.m; }
  [[nodiscard]] index_t cols() const noexcept { return layout_.n; }
  [[nodiscard]] const ProcGrid& grid() const noexcept { return layout_.grid; }
  [[nodiscard]] bool phantom() const noexcept { return phantom_; }

  /// The layout's ownership queries (see MatrixLayout).
  [[nodiscard]] int owner(index_t i, index_t j) const {
    return layout_.owner(i, j);
  }
  [[nodiscard]] index_t block_row_start(int rank) const {
    return layout_.block_row_start(rank);
  }
  [[nodiscard]] index_t block_rows(int rank) const {
    return layout_.block_rows(rank);
  }
  [[nodiscard]] index_t block_col_start(int rank) const {
    return layout_.block_col_start(rank);
  }
  [[nodiscard]] index_t block_cols(int rank) const {
    return layout_.block_cols(rank);
  }

  /// Mutable view of the calling rank's local block (not phantom).
  [[nodiscard]] MatrixView local_view(Rank& me);

  /// Read-only load/store view of the sub-rectangle when it lies entirely
  /// within one owner block AND that owner shares my memory domain (and the
  /// matrix is not phantom).  Returns nullopt otherwise.
  [[nodiscard]] std::optional<ConstMatrixView> direct_view(Rank& me,
                                                           index_t i0,
                                                           index_t j0,
                                                           index_t mi,
                                                           index_t nj) const;

  /// Declare to the RMA checker (when enabled) that `me` reads the
  /// rectangle [i0, i0+mi) x [j0, j0+nj) directly by load/store from
  /// `owner`'s block.  direct_view() declares automatically; the phantom
  /// direct-access path (which models the loads without data) must call
  /// this explicitly.  No-op when checking is off.
  void declare_direct_read(
      Rank& me, int owner, index_t i0, index_t j0, index_t mi, index_t nj,
      std::source_location site = std::source_location::current()) const;

  /// True when every owner of the rectangle is in my shared-memory domain.
  [[nodiscard]] bool rect_in_domain(Rank& me, index_t i0, index_t j0,
                                    index_t mi, index_t nj) const {
    return layout_.rect_in_domain(me.machine(), me.id(), i0, j0, mi, nj);
  }

  /// MatrixLayout::single_owner_in_domain for `me`.  Works for phantom
  /// matrices too (used to *model* direct access when no data exists).
  [[nodiscard]] std::optional<int> single_owner_in_domain(
      Rank& me, index_t i0, index_t j0, index_t mi, index_t nj) const {
    return layout_.single_owner_in_domain(me.machine(), me.id(), i0, j0, mi,
                                          nj);
  }

  /// The backing SymmetricRegion's allocation seq: lockstep-identical
  /// across ranks and never reused, so it is a process-wide unique matrix
  /// identity — the block cache keys patches with it (docs/CACHE.md).
  [[nodiscard]] std::uint64_t region_seq() const noexcept {
    return region_.seq;
  }

  /// Modeled bytes of the rectangle owned OUTSIDE `me`'s shared-memory
  /// domain — the inter-node volume a generalized get of it would move
  /// (what a cooperative-cache share saves).
  [[nodiscard]] std::uint64_t remote_piece_bytes(Rank& me, index_t i0,
                                                 index_t j0, index_t mi,
                                                 index_t nj);

  /// Declare to the RMA checker (when enabled) that `me` consumed the
  /// rectangle through the block cache: a completed read is registered at
  /// the TRUE origin (each owner's segment), so get-vs-put conflicts are
  /// still detected even though this rank moved no bytes over the NIC.
  void declare_shared_read(
      Rank& me, index_t i0, index_t j0, index_t mi, index_t nj,
      std::source_location site = std::source_location::current());

  /// Nonblocking generalized get of [i0, i0+mi) x [j0, j0+nj) into dst.
  /// dst must be mi x nj (ignored for phantom matrices; pass an empty view).
  [[nodiscard]] PatchHandle fetch_nb(Rank& me, index_t i0, index_t j0,
                                     index_t mi, index_t nj, MatrixView dst);

  /// Nonblocking generalized put: write src into the global rectangle
  /// (one one-sided put per intersected owner block).
  [[nodiscard]] PatchHandle store_nb(Rank& me, index_t i0, index_t j0,
                                     index_t mi, index_t nj,
                                     ConstMatrixView src);

  /// Nonblocking generalized accumulate: global rect += alpha * src, with
  /// element-level atomicity against concurrent accumulates.
  [[nodiscard]] PatchHandle accumulate_nb(Rank& me, index_t i0, index_t j0,
                                          index_t mi, index_t nj, double alpha,
                                          ConstMatrixView src);

  /// Complete a generalized one-sided operation.
  void wait(Rank& me, PatchHandle& h);

  /// Like wait(), but reports per-piece retry exhaustion instead of
  /// throwing: returns true when every piece delivered (RmaStatus::Ok).
  /// All pieces are completed either way, so drain loops stay balanced.
  bool try_wait(Rank& me, PatchHandle& h);

  /// Verify a fetched patch bitwise against the owners' live segments (the
  /// checksum stand-in: in a real runtime this would compare transported
  /// checksums).  Returns false when the copy differs — e.g. an injected
  /// payload corruption — in which case the caller should refetch.  Charges
  /// a local memory scan of the patch; trivially true for phantom matrices.
  /// Only valid while the owners' data is quiescent (SRUMMA's A/B panels
  /// are read-only during the multiply).
  bool verify_fetched(Rank& me, index_t i0, index_t j0, index_t mi, index_t nj,
                      ConstMatrixView dst);

  /// Fill my local block with the deterministic coordinate function so that
  /// distributed and serial copies of the same logical matrix agree.
  void fill_coords_local(Rank& me);

  /// Set my local block from the corresponding region of a full matrix.
  void scatter_from(Rank& me, ConstMatrixView global);

  /// Collective: copy every local block into a caller-shared full matrix.
  /// All ranks must pass views of the same m x n storage.  When a domain
  /// has been declared dead, its blocks are contributed by their buddy
  /// holders from the replicas instead (the dead ranks' own segments are
  /// modeled as unreachable).
  void gather_to(Rank& me, MatrixView global);

  /// Buddy replication (docs/FAULTS.md §7): every rank mirrors the block
  /// of its protectee — the rank with the same domain-local index in the
  /// domain buddy_offset places "before" its own — into a replica segment,
  /// so the panels of a domain that later fail-stops remain fetchable.
  /// Requires a fault plane with a kill configured (the buddy offset comes
  /// from it); srumma_multiply runs it before kill hooks are armed, so a
  /// domain can never die before its panels are mirrored.  Three
  /// sub-phases the caller sequences: replicate_alloc (collective,
  /// barriers — first use only), replicate_nb (issues the mirror get,
  /// refreshing the replica: C changes between multiplies) and
  /// replicate_finish (waits it).  Callers mirroring several matrices MUST
  /// alloc all of them before issuing any get: allocation is a collective
  /// with a barrier, and a nonblocking get crossing a barrier has undefined
  /// completion (the RMA checker flags it).  They then overlap the wires
  /// and pay ONE publication barrier after the last finish — the caller
  /// owns that barrier.  `mirror = false` skips the content get while
  /// still requiring the allocated segment (so post-death stores/gathers
  /// have somewhere to redirect) — srumma_multiply uses this for C when
  /// beta == 0: the post-beta snapshot is identically zero and recovery
  /// overwrites every element it reads back, so the bytes would be dead
  /// weight on the wire.
  void replicate_alloc(Rank& me);
  RmaHandle replicate_nb(Rank& me, bool mirror = true);
  /// False when the mirror get exhausted its RMA retries, leaving the
  /// replica incomplete: the caller re-issues replicate_nb and finishes
  /// again.
  [[nodiscard]] bool replicate_finish(Rank& me, RmaHandle& h);

  [[nodiscard]] RmaRuntime& rma() noexcept { return *rma_; }

  /// The task plan srumma_multiply last built for this rank with this
  /// matrix as C (empty until then).  A repeated multiply into the same C
  /// reuses it instead of planning again; core owns what it holds and when
  /// it is replaced.
  [[nodiscard]] std::shared_ptr<const PlanMemo>& plan_memo() noexcept {
    return plan_memo_;
  }

 private:
  /// One owner-block intersection of a global rectangle.  When the true
  /// owner's domain has been declared dead (and the matrix is replicated),
  /// the piece is REDIRECTED: `owner`/`owner_ptr` point at the buddy
  /// holder's replica copy of the block — the single place every access
  /// path (fetch/store/accumulate/verify/cache/checker) inherits the
  /// failover from.
  struct Piece {
    int owner;            ///< rank holding this piece (buddy after redirect)
    index_t gi, gj;       ///< global upper-left of the piece
    index_t rows, cols;   ///< extent
    double* owner_ptr;    ///< address inside the holding block (null: phantom)
    index_t owner_ld;     ///< holding block leading dimension
    std::uint64_t seg_seq;  ///< segment identity (region_ or replica_)
    index_t seg_lo;         ///< element offset of the piece in that segment
  };
  template <typename Fn>
  void for_each_piece(index_t i0, index_t j0, index_t mi, index_t nj, Fn&& fn);
  /// The walk of the three generalized ops: check the rectangle and the
  /// caller's view `v`, then return one handle per piece from
  /// `issue(piece, buffer, ld)`, where buffer is the piece's place in `v`
  /// (nullptr for a phantom matrix).
  template <typename View, typename Issue>
  PatchHandle for_each_piece_nb(const char* what, index_t i0, index_t j0,
                                index_t mi, index_t nj, View v, Issue&& issue);

  /// Buddy mapping (docs/FAULTS.md §7): same domain-local index, domain
  /// shifted by the fault plane's buddy_offset.
  [[nodiscard]] int buddy_holder(int rank) const;   ///< who protects `rank`
  [[nodiscard]] int protectee_of(int rank) const;   ///< whom `rank` protects

  RmaRuntime* rma_ = nullptr;
  MatrixLayout layout_;
  SymmetricRegion region_;
  SymmetricRegion replica_;  ///< buddy replica storage (empty until alloc)
  bool replica_allocated_ = false;
  bool phantom_ = false;
  std::shared_ptr<const PlanMemo> plan_memo_;
};

}  // namespace srumma
