#pragma once
// Serial BLAS-3 substrate: double-precision general matrix multiply.
//
// This plays the role of the vendor dgemm (-lsci/-lessl/-lscs/-lmkl) the
// paper links against: the serial building block every parallel algorithm
// calls per block product.  Two implementations are provided:
//   * gemm_naive   — straightforward triple loop; the correctness oracle.
//   * gemm_blocked — cache-blocked, packed-panel driver; the default.  Its
//     register-tile micro-kernel is selected at runtime from the kernel
//     registry (scalar / avx2 / avx512 — see blas/kernel.hpp), pinnable
//     via the SRUMMA_GEMM_KERNEL environment variable.
// Both follow BLAS semantics: C = alpha*op(A)*op(B) + beta*C with
// column-major storage and explicit leading dimensions.

#include "util/matrix.hpp"

namespace srumma::blas {

/// Transposition selector for gemm operands (BLAS 'N'/'T').
enum class Trans : char { No = 'N', Yes = 'T' };

/// op(X): rows of op(A) is m, cols of op(B) is n, inner dim is k.
/// A is lda x (ta==No ? k : m) holding (ta==No ? m x k : k x m);
/// B is ldb x (tb==No ? n : k) holding (tb==No ? k x n : n x k).
void gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k, double alpha,
          const double* a, index_t lda, const double* b, index_t ldb,
          double beta, double* c, index_t ldc);

/// Reference kernel; identical semantics to gemm(), O(mnk) triple loop.
void gemm_naive(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                double alpha, const double* a, index_t lda, const double* b,
                index_t ldb, double beta, double* c, index_t ldc);

/// Cache-blocked kernel; identical semantics to gemm().
void gemm_blocked(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                  double alpha, const double* a, index_t lda, const double* b,
                  index_t ldb, double beta, double* c, index_t ldc);

/// View-based convenience wrapper.  `a` and `b` are the stored (pre-op)
/// matrices; dimensions are validated against op(a)*op(b) conformance.
void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);

/// Dimensions of op(X) given the stored view.
[[nodiscard]] inline index_t op_rows(Trans t, ConstMatrixView x) {
  return t == Trans::No ? x.rows() : x.cols();
}
[[nodiscard]] inline index_t op_cols(Trans t, ConstMatrixView x) {
  return t == Trans::No ? x.cols() : x.rows();
}

namespace detail {
/// BLAS-style argument checking shared by every gemm entry point.  The
/// lda/ldb lower bounds are checked against the *stored* operand heights
/// (m or k for A, k or n for B depending on the op), but only when that
/// operand is non-empty, so degenerate calls (k == 0 with null operand
/// pointers) remain legal no-ops that just apply beta.
inline void check_gemm_args(Trans ta, Trans tb, index_t m, index_t n,
                            index_t k, index_t lda, index_t ldb, index_t ldc) {
  SRUMMA_REQUIRE(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  SRUMMA_REQUIRE(ldc >= (m > 0 ? m : 1), "gemm: ldc too small");
  const index_t a_rows = ta == Trans::No ? m : k;
  const index_t b_rows = tb == Trans::No ? k : n;
  if (m > 0 && k > 0) {
    SRUMMA_REQUIRE(lda >= a_rows, "gemm: lda too small for stored op(A)");
  }
  if (n > 0 && k > 0) {
    SRUMMA_REQUIRE(ldb >= b_rows, "gemm: ldb too small for stored op(B)");
  }
}
}  // namespace detail

}  // namespace srumma::blas
