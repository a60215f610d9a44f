#include "baselines/summa.hpp"

#include <algorithm>

#include "blas/gemm.hpp"
#include "core/task_plan.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace srumma {

MultiplyResult summa_multiply(Rank& me, Comm& comm, DistMatrix& a,
                              DistMatrix& b, DistMatrix& c,
                              const SummaOptions& opt) {
  Team& team = me.team();
  const ProcGrid grid = c.grid();
  SRUMMA_REQUIRE(a.grid().p == grid.p && a.grid().q == grid.q &&
                     b.grid().p == grid.p && b.grid().q == grid.q,
                 "summa: A, B, C must share one process grid");
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = a.cols();
  SRUMMA_REQUIRE(a.rows() == m && b.rows() == k && b.cols() == n,
                 "summa: dimensions do not conform");
  SRUMMA_REQUIRE(a.phantom() == c.phantom() && b.phantom() == c.phantom(),
                 "summa: phantom flags of A, B, C must agree");
  const bool phantom = c.phantom();
  const MachineModel& mm = team.machine();

  const auto [pi, pj] = grid.coords_of(me.id());
  std::vector<int> row_group;  // my grid row: broadcast domain for A panels
  for (int j = 0; j < grid.q; ++j) row_group.push_back(grid.rank_of(pi, j));
  std::vector<int> col_group;  // my grid column: broadcast domain for B panels
  for (int i = 0; i < grid.p; ++i) col_group.push_back(grid.rank_of(i, pj));

  const std::vector<index_t> ks =
      k_segment_bounds(a.layout().cols, b.layout().rows, opt.panel);
  index_t max_panel = 0;
  for (std::size_t s = 0; s + 1 < ks.size(); ++s)
    max_panel = std::max(max_panel, ks[s + 1] - ks[s]);

  const index_t bm = c.block_rows(me.id());
  const index_t bn = c.block_cols(me.id());

  me.barrier();
  const double start_vt = me.clock().now();
  const TraceCounters my_start = me.trace();

  if (!phantom && opt.beta != 1.0) {
    MatrixView mine = c.local_view(me);
    if (opt.beta == 0.0) {
      mine.fill(0.0);
    } else {
      for (index_t j = 0; j < bn; ++j)
        for (index_t i = 0; i < bm; ++i) mine(i, j) *= opt.beta;
    }
  }

  Matrix a_panel;
  Matrix b_panel;
  if (!phantom && max_panel > 0) {
    a_panel = Matrix(std::max<index_t>(bm, 1), max_panel);
    b_panel = Matrix(std::max<index_t>(max_panel, 1), bn);
  }
  me.trace().buffer_bytes_peak = std::max(
      me.trace().buffer_bytes_peak,
      static_cast<std::uint64_t>((bm + bn) * max_panel) * sizeof(double));

  for (std::size_t s = 0; s + 1 < ks.size(); ++s) {
    const index_t k0 = ks[s];
    const index_t kw = ks[s + 1] - k0;
    if (kw == 0) continue;

    // A panel: owned by one grid column; roots pack, then row broadcast.
    const int pc = a.layout().cols.owner(k0);
    const int a_root = grid.rank_of(pi, pc);
    if (me.id() == a_root) {
      if (!phantom && bm > 0) {
        copy(ConstMatrixView(a.local_view(me).block(
                 0, k0 - a.block_col_start(me.id()), bm, kw)),
             a_panel.block(0, 0, bm, kw));
      }
      me.charge_seconds(static_cast<double>(bm * kw) * sizeof(double) /
                        mm.shm_bw);  // pack
    }
    comm.bcast(me, row_group, a_root, phantom ? nullptr : a_panel.data(),
               static_cast<std::size_t>(bm * kw));

    // B panel: owned by one grid row; roots pack, then column broadcast.
    // The panel buffer is packed with ld == kw so the broadcast payload is
    // contiguous even when this panel is narrower than the widest one.
    const int pr = b.layout().rows.owner(k0);
    const int b_root = grid.rank_of(pr, pj);
    MatrixView b_packed =
        phantom ? MatrixView{}
                : MatrixView(b_panel.data(), kw, bn, std::max<index_t>(kw, 1));
    if (me.id() == b_root) {
      if (!phantom && bn > 0) {
        copy(ConstMatrixView(b.local_view(me).block(
                 k0 - b.block_row_start(me.id()), 0, kw, bn)),
             b_packed);
      }
      me.charge_seconds(static_cast<double>(kw * bn) * sizeof(double) /
                        mm.shm_bw);  // pack
    }
    comm.bcast(me, col_group, b_root, phantom ? nullptr : b_panel.data(),
               static_cast<std::size_t>(kw * bn));

    if (!phantom && bm > 0 && bn > 0) {
      MatrixView mine = c.local_view(me);
      blas::gemm(blas::Trans::No, blas::Trans::No, bm, bn, kw, opt.alpha,
                 a_panel.data(), a_panel.ld(), b_packed.data(), b_packed.ld(),
                 1.0, mine.data(), mine.ld());
    }
    me.charge_gemm(bm, bn, kw);
  }

  return collect_result(me, start_vt, my_start,
                        gemm_flops(static_cast<double>(m),
                                   static_cast<double>(n),
                                   static_cast<double>(k)));
}

void transpose_redistribute(Rank& me, Comm& comm, DistMatrix& src,
                            DistMatrix& dst) {
  Team& team = me.team();
  SRUMMA_REQUIRE(src.rows() == dst.cols() && src.cols() == dst.rows(),
                 "transpose_redistribute: dst must be src transposed");
  SRUMMA_REQUIRE(src.phantom() == dst.phantom(),
                 "transpose_redistribute: phantom flags must agree");
  const bool phantom = src.phantom();
  const MachineModel& mm = team.machine();
  const int size = team.size();

  const index_t sr0 = src.block_row_start(me.id());
  const index_t sc0 = src.block_col_start(me.id());

  // Piece of *sender*'s transposed block landing in *receiver*'s dst block,
  // in dst coordinates (row range, col range).
  auto piece = [&](int sender, int receiver) {
    const index_t s_r0 = src.block_row_start(sender);
    const index_t s_m = src.block_rows(sender);
    const index_t s_c0 = src.block_col_start(sender);
    const index_t s_n = src.block_cols(sender);
    const index_t d_r0 = dst.block_row_start(receiver);
    const index_t d_m = dst.block_rows(receiver);
    const index_t d_c0 = dst.block_col_start(receiver);
    const index_t d_n = dst.block_cols(receiver);
    const index_t ilo = std::max(s_c0, d_r0);
    const index_t ihi = std::min(s_c0 + s_n, d_r0 + d_m);
    const index_t jlo = std::max(s_r0, d_c0);
    const index_t jhi = std::min(s_r0 + s_m, d_c0 + d_n);
    struct Rect {
      index_t ilo, jlo, rows, cols;
    };
    return Rect{ilo, jlo, std::max<index_t>(ihi - ilo, 0),
                std::max<index_t>(jhi - jlo, 0)};
  };

  // Pack my transposed contribution to `receiver` (dst-oriented,
  // column-major, contiguous: ld == piece rows, so the buffers stay wire-
  // compatible whatever piece size was packed previously).
  std::vector<double> send_buf;
  std::vector<double> recv_buf;
  auto pack_for = [&](int receiver) -> std::size_t {
    const auto r = piece(me.id(), receiver);
    const std::size_t elems = static_cast<std::size_t>(r.rows * r.cols);
    if (elems == 0) return 0;
    me.charge_seconds(static_cast<double>(elems) * sizeof(double) / mm.shm_bw);
    if (phantom) return elems;
    if (send_buf.size() < elems) send_buf.resize(elems);
    MatrixView sv = src.local_view(me);
    for (index_t j = 0; j < r.cols; ++j)
      for (index_t i = 0; i < r.rows; ++i)
        send_buf[static_cast<std::size_t>(i + j * r.rows)] =
            sv(r.jlo + j - sr0, r.ilo + i - sc0);
    return elems;
  };
  auto unpack_from = [&](int sender, const double* data) {
    const auto r = piece(sender, me.id());
    const std::size_t elems = static_cast<std::size_t>(r.rows * r.cols);
    if (elems == 0) return;
    me.charge_seconds(static_cast<double>(elems) * sizeof(double) / mm.shm_bw);
    if (phantom) return;
    MatrixView dv = dst.local_view(me);
    for (index_t j = 0; j < r.cols; ++j)
      for (index_t i = 0; i < r.rows; ++i)
        dv(r.ilo + i - dst.block_row_start(me.id()),
           r.jlo + j - dst.block_col_start(me.id())) =
            data[i + j * r.rows];
  };

  me.barrier();
  // Ring schedule: at step s, send to me+s, receive from me-s; step 0 is
  // the local transpose.  sendrecv posts the receive first, so every step
  // is deadlock-free.
  unpack_from(me.id(), [&] {
    pack_for(me.id());
    return phantom ? nullptr : send_buf.data();
  }());
  for (int s = 1; s < size; ++s) {
    const int to = (me.id() + s) % size;
    const int from = (me.id() - s + size) % size;
    const std::size_t selems = pack_for(to);
    const auto rrect = piece(from, me.id());
    const std::size_t relems =
        static_cast<std::size_t>(rrect.rows * rrect.cols);
    // Always exchange, even zero-sized pieces: the send/recv channels of a
    // step pair different partners, so skipping must be symmetric per
    // channel — running the empty message is the simple safe choice.
    if (!phantom && recv_buf.size() < relems) recv_buf.resize(relems);
    comm.sendrecv(me, to, 201, phantom ? nullptr : send_buf.data(), selems,
                  from, 201, phantom ? nullptr : recv_buf.data(), relems);
    if (relems > 0) unpack_from(from, phantom ? nullptr : recv_buf.data());
  }
  me.barrier();
}

MultiplyResult pdgemm_model(Rank& me, Comm& comm, DistMatrix& a, DistMatrix& b,
                            DistMatrix& c, const PdgemmOptions& opt) {
  me.barrier();
  const double start_vt = me.clock().now();
  const TraceCounters my_start = me.trace();

  DistMatrix* a_eff = &a;
  DistMatrix* b_eff = &b;
  std::optional<DistMatrix> at;
  std::optional<DistMatrix> bt;
  // Transposed operands cost pdgemm a full redistributed copy: the local
  // block of the temporary counts against the memory footprint.
  std::uint64_t redist_bytes = 0;
  if (opt.ta == blas::Trans::Yes) {
    redist_bytes += static_cast<std::uint64_t>(a.block_rows(me.id()) *
                                               a.block_cols(me.id())) *
                    sizeof(double);
    at.emplace(a.rma(), me, a.cols(), a.rows(), a.grid(), a.phantom());
    transpose_redistribute(me, comm, a, *at);
    a_eff = &*at;
  }
  if (opt.tb == blas::Trans::Yes) {
    redist_bytes += static_cast<std::uint64_t>(b.block_rows(me.id()) *
                                               b.block_cols(me.id())) *
                    sizeof(double);
    bt.emplace(b.rma(), me, b.cols(), b.rows(), b.grid(), b.phantom());
    transpose_redistribute(me, comm, b, *bt);
    b_eff = &*bt;
  }

  SummaOptions sopt;
  sopt.alpha = opt.alpha;
  sopt.beta = opt.beta;
  sopt.panel = opt.panel;
  (void)summa_multiply(me, comm, *a_eff, *b_eff, c, sopt);
  // Footprint: the larger of SUMMA's panels (set by the call above) and
  // the redistributed transpose temporaries.
  me.trace().buffer_bytes_peak =
      std::max(me.trace().buffer_bytes_peak, redist_bytes);

  if (at) at->destroy(me);
  if (bt) bt->destroy(me);

  const index_t k = opt.ta == blas::Trans::Yes ? a.rows() : a.cols();
  return collect_result(me, start_vt, my_start,
                        gemm_flops(static_cast<double>(c.rows()),
                                   static_cast<double>(c.cols()),
                                   static_cast<double>(k)));
}

}  // namespace srumma
