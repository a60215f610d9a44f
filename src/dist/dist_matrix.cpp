#include "dist/dist_matrix.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "fault/fault_plane.hpp"
#include "util/rng.hpp"

namespace srumma {

void MatrixLayout::check_rect(index_t i0, index_t j0, index_t mi,
                              index_t nj) const {
  SRUMMA_REQUIRE(mi >= 0 && nj >= 0, "rectangle extent must be non-negative");
  SRUMMA_REQUIRE(i0 >= 0 && j0 >= 0 && i0 + mi <= m && j0 + nj <= n,
                 "rectangle exceeds matrix bounds");
}

bool MatrixLayout::rect_in_domain(const MachineModel& mm, int rank, index_t i0,
                                  index_t j0, index_t mi, index_t nj) const {
  check_rect(i0, j0, mi, nj);
  if (mi == 0 || nj == 0) return true;
  const int pi_lo = rows.owner(i0);
  const int pi_hi = rows.owner(i0 + mi - 1);
  const int pj_lo = cols.owner(j0);
  const int pj_hi = cols.owner(j0 + nj - 1);
  for (int pi = pi_lo; pi <= pi_hi; ++pi)
    for (int pj = pj_lo; pj <= pj_hi; ++pj)
      if (!mm.same_domain(rank, grid.rank_of(pi, pj))) return false;
  return true;
}

std::optional<int> MatrixLayout::single_owner_in_domain(const MachineModel& mm,
                                                        int rank, index_t i0,
                                                        index_t j0, index_t mi,
                                                        index_t nj) const {
  check_rect(i0, j0, mi, nj);
  if (mi == 0 || nj == 0) return std::nullopt;
  const int o = owner(i0, j0);
  if (owner(i0 + mi - 1, j0 + nj - 1) != o) return std::nullopt;
  if (!mm.same_domain(rank, o)) return std::nullopt;
  return o;
}

DistMatrix::DistMatrix(RmaRuntime& rma, Rank& me, index_t m, index_t n,
                       ProcGrid grid, bool phantom)
    : rma_(&rma), layout_(m, n, grid), phantom_(phantom) {
  SRUMMA_REQUIRE(grid.size() == rma.team().size(),
                 "DistMatrix: grid size must equal team size");
  const std::size_t elems =
      phantom_ ? 0
               : static_cast<std::size_t>(block_rows(me.id())) *
                     static_cast<std::size_t>(block_cols(me.id()));
  region_ = rma.malloc_symmetric(me, elems);
}

void DistMatrix::destroy(Rank& me) {
  rma_->free_symmetric(me, region_);
  region_ = SymmetricRegion{};
  if (replica_allocated_) {
    rma_->free_symmetric(me, replica_);
    replica_ = SymmetricRegion{};
    replica_allocated_ = false;
  }
}

int DistMatrix::buddy_holder(int rank) const {
  const MachineModel& mm = rma_->team().machine();
  fault::FaultPlane* fp = rma_->team().faults();
  const int ds = mm.domain_size();
  const int nd = mm.num_domains();
  const int off = fp != nullptr ? fp->buddy_offset() : 1;
  return ((rank / ds + off) % nd) * ds + rank % ds;
}

int DistMatrix::protectee_of(int rank) const {
  const MachineModel& mm = rma_->team().machine();
  fault::FaultPlane* fp = rma_->team().faults();
  const int ds = mm.domain_size();
  const int nd = mm.num_domains();
  const int off = fp != nullptr ? fp->buddy_offset() : 1;
  return ((rank / ds - off % nd + nd) % nd) * ds + rank % ds;
}

void DistMatrix::replicate_alloc(Rank& me) {
  fault::FaultPlane* fp = rma_->team().faults();
  SRUMMA_REQUIRE(fp != nullptr && fp->kill_enabled(),
                 "replicate: buddy replication needs a fault plane with a "
                 "permanent kill configured");
  if (replica_allocated_) return;
  const int src = protectee_of(me.id());
  const std::size_t elems =
      phantom_ ? 0
               : static_cast<std::size_t>(block_rows(src)) *
                     static_cast<std::size_t>(block_cols(src));
  replica_ = rma_->malloc_symmetric(me, elems);  // collective (barrier)
  replica_allocated_ = true;
}

RmaHandle DistMatrix::replicate_nb(Rank& me, bool mirror) {
  SRUMMA_REQUIRE(replica_allocated_,
                 "replicate_nb: call replicate_alloc first — allocation is a "
                 "collective with a barrier, and a nonblocking get must not "
                 "cross it");
  const int src = protectee_of(me.id());
  const index_t rm = block_rows(src);
  const index_t rn = block_cols(src);
  // Mirror the protectee's whole block into my replica segment — one
  // inter-domain get per rank, fully accounted (this is the recovery
  // stack's up-front cost, visible in BENCH_chaos.json).
  if (mirror && rm > 0 && rn > 0) {
    const index_t ld = std::max<index_t>(rm, 1);
    return rma_->nbget2d(me, src, region_.base(src), ld, rm, rn,
                         replica_.base(me.id()), ld);
  }
  return {};
}

bool DistMatrix::replicate_finish(Rank& me, RmaHandle& h) {
  // No kill is armed while replicating, so only a transient failure
  // (RmaStatus::Error) leaves the replica incomplete.
  return !h.pending || rma_->try_wait(me, h) != RmaStatus::Error;
}

MatrixView DistMatrix::local_view(Rank& me) {
  SRUMMA_REQUIRE(!phantom_, "local_view: phantom matrix has no storage");
  const index_t lm = block_rows(me.id());
  const index_t ln = block_cols(me.id());
  return MatrixView(region_.base(me.id()), lm, ln, std::max<index_t>(lm, 1));
}

std::optional<ConstMatrixView> DistMatrix::direct_view(Rank& me, index_t i0,
                                                       index_t j0, index_t mi,
                                                       index_t nj) const {
  const std::optional<int> o = single_owner_in_domain(me, i0, j0, mi, nj);
  if (phantom_ || !o) return std::nullopt;
  declare_direct_read(me, *o, i0, j0, mi, nj);
  const index_t lm = block_rows(*o);
  const double* base = region_.base(*o) + (i0 - block_row_start(*o)) +
                       (j0 - block_col_start(*o)) * lm;
  return ConstMatrixView(base, mi, nj, lm);
}

void DistMatrix::declare_direct_read(Rank& me, int owner, index_t i0,
                                     index_t j0, index_t mi, index_t nj,
                                     std::source_location site) const {
  if (rma_->checker() == nullptr || mi <= 0 || nj <= 0) return;
  const index_t lm = std::max<index_t>(block_rows(owner), 1);
  const index_t li = i0 - block_row_start(owner);
  const index_t lj = j0 - block_col_start(owner);
  rma_->declare_direct_access(me, region_, owner, li + lj * lm, mi, nj, lm,
                              site);
}

std::uint64_t DistMatrix::remote_piece_bytes(Rank& me, index_t i0, index_t j0,
                                             index_t mi, index_t nj) {
  layout_.check_rect(i0, j0, mi, nj);
  if (mi == 0 || nj == 0) return 0;
  std::uint64_t bytes = 0;
  for_each_piece(i0, j0, mi, nj, [&](const Piece& p) {
    if (me.machine().same_domain(me.id(), p.owner)) return;
    bytes += static_cast<std::uint64_t>(p.rows) *
             static_cast<std::uint64_t>(p.cols) * sizeof(double);
  });
  return bytes;
}

void DistMatrix::declare_shared_read(Rank& me, index_t i0, index_t j0,
                                     index_t mi, index_t nj,
                                     std::source_location site) {
  check::RmaChecker* ck = rma_->checker();
  if (ck == nullptr || mi <= 0 || nj <= 0) return;
  for_each_piece(i0, j0, mi, nj, [&](const Piece& p) {
    // Register at the piece's actual segment (region_ or, after a
    // dead-domain redirect, the buddy's replica) so the checker tracks the
    // bytes a cache share really consumed.
    check::Footprint f;
    f.rows = static_cast<std::uint64_t>(p.rows) * sizeof(double);
    f.cols = static_cast<std::uint64_t>(p.cols);
    f.ld = static_cast<std::uint64_t>(p.owner_ld) * sizeof(double);
    f.lo = static_cast<std::uint64_t>(p.seg_lo) * sizeof(double);
    ck->on_shared_read(me.id(), p.owner, p.seg_seq, f, site);
  });
}

template <typename Fn>
void DistMatrix::for_each_piece(index_t i0, index_t j0, index_t mi, index_t nj,
                                Fn&& fn) {
  fault::FaultPlane* fp = rma_->team().faults();
  const bool failover =
      replica_allocated_ && fp != nullptr && fp->any_domain_dead();
  const MachineModel& mm = rma_->team().machine();
  const BlockDist1D& rows = layout_.rows;
  const BlockDist1D& cols = layout_.cols;
  const int pi_lo = rows.owner(i0);
  const int pi_hi = rows.owner(i0 + mi - 1);
  const int pj_lo = cols.owner(j0);
  const int pj_hi = cols.owner(j0 + nj - 1);
  for (int pj = pj_lo; pj <= pj_hi; ++pj) {
    const index_t cs = cols.start(pj);
    const index_t jlo = std::max(j0, cs);
    const index_t jhi = std::min(j0 + nj, cs + cols.count(pj));
    for (int pi = pi_lo; pi <= pi_hi; ++pi) {
      const index_t rs = rows.start(pi);
      const index_t ilo = std::max(i0, rs);
      const index_t ihi = std::min(i0 + mi, rs + rows.count(pi));
      Piece p;
      const int true_owner = layout_.grid.rank_of(pi, pj);
      p.owner = true_owner;
      p.gi = ilo;
      p.gj = jlo;
      p.rows = ihi - ilo;
      p.cols = jhi - jlo;
      p.owner_ld = std::max<index_t>(rows.count(pi), 1);
      p.seg_lo = (ilo - rs) + (jlo - cs) * p.owner_ld;
      if (failover && fp->domain_dead(mm.domain_of(true_owner))) {
        // The owner's domain fail-stopped: serve the piece from the buddy
        // holder's replica copy.  The replica stores the protectee's whole
        // block with the same leading dimension, so the offsets carry over.
        p.owner = buddy_holder(true_owner);
        p.seg_seq = replica_.seq;
        double* base = replica_.base(p.owner);
        p.owner_ptr = base == nullptr ? nullptr : base + p.seg_lo;
      } else {
        p.seg_seq = region_.seq;
        double* base = region_.base(true_owner);
        p.owner_ptr = base == nullptr ? nullptr : base + p.seg_lo;
      }
      fn(p);
    }
  }
}

template <typename View, typename Issue>
PatchHandle DistMatrix::for_each_piece_nb(const char* what, index_t i0,
                                          index_t j0, index_t mi, index_t nj,
                                          View v, Issue&& issue) {
  layout_.check_rect(i0, j0, mi, nj);
  if (!phantom_) {
    SRUMMA_REQUIRE(v.rows() == mi && v.cols() == nj,
                   std::string(what) + ": view must match patch extent");
  }
  PatchHandle ph;
  if (mi == 0 || nj == 0) return ph;
  ph.pending = true;
  for_each_piece(i0, j0, mi, nj, [&](const Piece& p) {
    ph.pieces.push_back(
        phantom_ ? issue(p, nullptr, std::max<index_t>(p.rows, 1))
                 : issue(p, v.data() + (p.gi - i0) + (p.gj - j0) * v.ld(),
                         v.ld()));
  });
  return ph;
}

PatchHandle DistMatrix::fetch_nb(Rank& me, index_t i0, index_t j0, index_t mi,
                                 index_t nj, MatrixView dst) {
  return for_each_piece_nb(
      "fetch_nb", i0, j0, mi, nj, dst,
      [&](const Piece& p, double* d, index_t ld) {
        return rma_->nbget2d(me, p.owner, p.owner_ptr, p.owner_ld, p.rows,
                             p.cols, d, ld);
      });
}

PatchHandle DistMatrix::store_nb(Rank& me, index_t i0, index_t j0, index_t mi,
                                 index_t nj, ConstMatrixView src) {
  return for_each_piece_nb(
      "store_nb", i0, j0, mi, nj, src,
      [&](const Piece& p, const double* s, index_t ld) {
        return rma_->nbput2d(me, p.owner, s, ld, p.rows, p.cols, p.owner_ptr,
                             p.owner_ld);
      });
}

PatchHandle DistMatrix::accumulate_nb(Rank& me, index_t i0, index_t j0,
                                      index_t mi, index_t nj, double alpha,
                                      ConstMatrixView src) {
  return for_each_piece_nb(
      "accumulate_nb", i0, j0, mi, nj, src,
      [&](const Piece& p, const double* s, index_t ld) {
        return rma_->nbacc2d(me, p.owner, alpha, s, ld, p.rows, p.cols,
                             p.owner_ptr, p.owner_ld);
      });
}

void DistMatrix::wait(Rank& me, PatchHandle& h) {
  if (!h.pending) return;
  for (auto& piece : h.pieces) {
    if (piece.pending) rma_->wait(me, piece);
  }
  h.pending = false;
}

bool DistMatrix::try_wait(Rank& me, PatchHandle& h) {
  if (!h.pending) return true;
  bool ok = true;
  for (auto& piece : h.pieces) {
    if (piece.pending && rma_->try_wait(me, piece) != RmaStatus::Ok)
      ok = false;
  }
  h.pending = false;
  return ok;
}

bool DistMatrix::verify_fetched(Rank& me, index_t i0, index_t j0, index_t mi,
                                index_t nj, ConstMatrixView dst) {
  layout_.check_rect(i0, j0, mi, nj);
  if (phantom_ || mi == 0 || nj == 0) return true;
  SRUMMA_REQUIRE(dst.rows() == mi && dst.cols() == nj,
                 "verify_fetched: view must match patch extent");
  bool ok = true;
  for_each_piece(i0, j0, mi, nj, [&](const Piece& p) {
    if (p.owner_ptr == nullptr || !ok) return;
    const double* d = dst.data() + (p.gi - i0) + (p.gj - j0) * dst.ld();
    for (index_t c = 0; c < p.cols && ok; ++c) {
      if (std::memcmp(d + c * dst.ld(), p.owner_ptr + c * p.owner_ld,
                      static_cast<std::size_t>(p.rows) * sizeof(double)) != 0)
        ok = false;
    }
  });
  // The verification pass itself: one local memory scan over the patch.
  const double bytes = static_cast<double>(mi) * static_cast<double>(nj) *
                       sizeof(double);
  me.charge_seconds(bytes / me.machine().host_copy_bw);
  return ok;
}

void DistMatrix::fill_coords_local(Rank& me) {
  SRUMMA_REQUIRE(!phantom_, "fill: phantom matrix has no storage");
  fill_coords(local_view(me), block_row_start(me.id()),
              block_col_start(me.id()));
}

void DistMatrix::scatter_from(Rank& me, ConstMatrixView global) {
  SRUMMA_REQUIRE(!phantom_, "scatter: phantom matrix has no storage");
  SRUMMA_REQUIRE(global.rows() == rows() && global.cols() == cols(),
                 "scatter: global view dimension mismatch");
  MatrixView mine = local_view(me);
  copy(global.block(block_row_start(me.id()), block_col_start(me.id()),
                    mine.rows(), mine.cols()),
       mine);
}

void DistMatrix::gather_to(Rank& me, MatrixView global) {
  SRUMMA_REQUIRE(!phantom_, "gather: phantom matrix has no storage");
  SRUMMA_REQUIRE(global.rows() == rows() && global.cols() == cols(),
                 "gather: global view dimension mismatch");
  me.barrier();
  fault::FaultPlane* fp = rma_->team().faults();
  const bool my_domain_dead = fp != nullptr && fp->domain_dead(me.domain());
  if (!my_domain_dead) {
    MatrixView mine = local_view(me);
    copy(mine, global.block(block_row_start(me.id()), block_col_start(me.id()),
                            mine.rows(), mine.cols()));
  }
  if (fp != nullptr && replica_allocated_ && !my_domain_dead) {
    // A dead domain's segments are modeled unreachable: its buddy holders
    // contribute the replica copies of its blocks instead.
    const int prot = protectee_of(me.id());
    if (fp->domain_dead(me.machine().domain_of(prot))) {
      const index_t rm = block_rows(prot);
      const index_t rn = block_cols(prot);
      if (rm > 0 && rn > 0) {
        ConstMatrixView rep(replica_.base(me.id()), rm, rn,
                            std::max<index_t>(rm, 1));
        copy(rep, global.block(block_row_start(prot), block_col_start(prot),
                               rm, rn));
      }
    }
  }
  me.barrier();
}

}  // namespace srumma
