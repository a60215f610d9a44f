// AVX-512F 16x12 micro-kernel.  This TU is the only one compiled with
// -mavx512f -mfma (see src/blas/CMakeLists.txt); the registry consults
// supported() before ever dispatching here, so the binary stays runnable
// on CPUs without AVX-512.
//
// Register budget (32 zmm): 24 accumulators (2 zmm per column x 12 columns)
// + 2 for the A column + 1 broadcast.  A panels are packed 16 doubles per
// k step (128 bytes), so A loads are 64-byte aligned; B is read via
// broadcasts, which the compiler folds into the FMA's memory operand.
//
// Edge tiles run the same FMA stream under AVX-512 masks: one __mmask8 per
// row half selects the live rows and columns go four at a time, so every
// mr_eff x nr_eff corner is vectorized.  Masked-off lanes are never read,
// which keeps the contract that unpacked panel lanes are never touched.

#include <algorithm>

#include "blas/kernel.hpp"

#if defined(__AVX512F__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace srumma::blas::detail {

// Declared here (not in kernel.hpp) so translation units of the library
// can reference the kernel only when it is compiled in.
const GemmKernel& avx512_kernel();

namespace {

constexpr index_t kMr = 16;
constexpr index_t kNr = 12;

#if defined(__AVX512F__) && defined(__FMA__)

void avx512_full(index_t kc, const double* ap, const double* bp, double* c,
                 index_t ldc) {
  // Named accumulators, not arrays (see kernel_avx2.cpp): an array stays
  // live on the stack and every FMA result is mirrored back to memory.
  __m512d c0l = _mm512_setzero_pd(), c0h = _mm512_setzero_pd();
  __m512d c1l = _mm512_setzero_pd(), c1h = _mm512_setzero_pd();
  __m512d c2l = _mm512_setzero_pd(), c2h = _mm512_setzero_pd();
  __m512d c3l = _mm512_setzero_pd(), c3h = _mm512_setzero_pd();
  __m512d c4l = _mm512_setzero_pd(), c4h = _mm512_setzero_pd();
  __m512d c5l = _mm512_setzero_pd(), c5h = _mm512_setzero_pd();
  __m512d c6l = _mm512_setzero_pd(), c6h = _mm512_setzero_pd();
  __m512d c7l = _mm512_setzero_pd(), c7h = _mm512_setzero_pd();
  __m512d c8l = _mm512_setzero_pd(), c8h = _mm512_setzero_pd();
  __m512d c9l = _mm512_setzero_pd(), c9h = _mm512_setzero_pd();
  __m512d cal = _mm512_setzero_pd(), cah = _mm512_setzero_pd();
  __m512d cbl = _mm512_setzero_pd(), cbh = _mm512_setzero_pd();
  // Start pulling the C tile in now: with the short k of SRUMMA's block
  // products the final update would otherwise stall on its misses.  Three
  // touches cover the up-to-three lines of an unaligned 16-double column.
  for (index_t s = 0; s < kNr; ++s) {
    _mm_prefetch(reinterpret_cast<const char*>(c + s * ldc), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(c + s * ldc + 8), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(c + s * ldc + 15), _MM_HINT_T0);
  }
  for (index_t p = 0; p < kc; ++p, ap += kMr, bp += kNr) {
    const __m512d a_lo = _mm512_load_pd(ap);
    const __m512d a_hi = _mm512_load_pd(ap + 8);
    __m512d bs = _mm512_set1_pd(bp[0]);
    c0l = _mm512_fmadd_pd(a_lo, bs, c0l);
    c0h = _mm512_fmadd_pd(a_hi, bs, c0h);
    bs = _mm512_set1_pd(bp[1]);
    c1l = _mm512_fmadd_pd(a_lo, bs, c1l);
    c1h = _mm512_fmadd_pd(a_hi, bs, c1h);
    bs = _mm512_set1_pd(bp[2]);
    c2l = _mm512_fmadd_pd(a_lo, bs, c2l);
    c2h = _mm512_fmadd_pd(a_hi, bs, c2h);
    bs = _mm512_set1_pd(bp[3]);
    c3l = _mm512_fmadd_pd(a_lo, bs, c3l);
    c3h = _mm512_fmadd_pd(a_hi, bs, c3h);
    bs = _mm512_set1_pd(bp[4]);
    c4l = _mm512_fmadd_pd(a_lo, bs, c4l);
    c4h = _mm512_fmadd_pd(a_hi, bs, c4h);
    bs = _mm512_set1_pd(bp[5]);
    c5l = _mm512_fmadd_pd(a_lo, bs, c5l);
    c5h = _mm512_fmadd_pd(a_hi, bs, c5h);
    bs = _mm512_set1_pd(bp[6]);
    c6l = _mm512_fmadd_pd(a_lo, bs, c6l);
    c6h = _mm512_fmadd_pd(a_hi, bs, c6h);
    bs = _mm512_set1_pd(bp[7]);
    c7l = _mm512_fmadd_pd(a_lo, bs, c7l);
    c7h = _mm512_fmadd_pd(a_hi, bs, c7h);
    bs = _mm512_set1_pd(bp[8]);
    c8l = _mm512_fmadd_pd(a_lo, bs, c8l);
    c8h = _mm512_fmadd_pd(a_hi, bs, c8h);
    bs = _mm512_set1_pd(bp[9]);
    c9l = _mm512_fmadd_pd(a_lo, bs, c9l);
    c9h = _mm512_fmadd_pd(a_hi, bs, c9h);
    bs = _mm512_set1_pd(bp[10]);
    cal = _mm512_fmadd_pd(a_lo, bs, cal);
    cah = _mm512_fmadd_pd(a_hi, bs, cah);
    bs = _mm512_set1_pd(bp[11]);
    cbl = _mm512_fmadd_pd(a_lo, bs, cbl);
    cbh = _mm512_fmadd_pd(a_hi, bs, cbh);
  }
  const __m512d acc_lo[kNr] = {c0l, c1l, c2l, c3l, c4l, c5l,
                               c6l, c7l, c8l, c9l, cal, cbl};
  const __m512d acc_hi[kNr] = {c0h, c1h, c2h, c3h, c4h, c5h,
                               c6h, c7h, c8h, c9h, cah, cbh};
  for (index_t s = 0; s < kNr; ++s) {
    double* cs = c + s * ldc;
    _mm512_storeu_pd(cs, _mm512_add_pd(_mm512_loadu_pd(cs), acc_lo[s]));
    _mm512_storeu_pd(cs + 8, _mm512_add_pd(_mm512_loadu_pd(cs + 8), acc_hi[s]));
  }
}

// Up to four columns of an edge tile: `cols` (1..4) of them are live and
// the rows are selected by m_lo/m_hi.  Dead columns re-broadcast the last
// live B column, so the FMA stream stays four columns wide (enough
// independent chains to cover FMA latency) without reading an unpacked B
// lane; only live columns are stored.
void avx512_edge_cols(index_t kc, const double* ap, const double* bp,
                      double* c, index_t ldc, __mmask8 m_lo, __mmask8 m_hi,
                      index_t cols) {
  const index_t b1 = std::min<index_t>(1, cols - 1);
  const index_t b2 = std::min<index_t>(2, cols - 1);
  const index_t b3 = std::min<index_t>(3, cols - 1);
  __m512d c0l = _mm512_setzero_pd(), c0h = _mm512_setzero_pd();
  __m512d c1l = _mm512_setzero_pd(), c1h = _mm512_setzero_pd();
  __m512d c2l = _mm512_setzero_pd(), c2h = _mm512_setzero_pd();
  __m512d c3l = _mm512_setzero_pd(), c3h = _mm512_setzero_pd();
  for (index_t p = 0; p < kc; ++p, ap += kMr, bp += kNr) {
    const __m512d a_lo = _mm512_maskz_load_pd(m_lo, ap);
    const __m512d a_hi = _mm512_maskz_load_pd(m_hi, ap + 8);
    __m512d bs = _mm512_set1_pd(bp[0]);
    c0l = _mm512_fmadd_pd(a_lo, bs, c0l);
    c0h = _mm512_fmadd_pd(a_hi, bs, c0h);
    bs = _mm512_set1_pd(bp[b1]);
    c1l = _mm512_fmadd_pd(a_lo, bs, c1l);
    c1h = _mm512_fmadd_pd(a_hi, bs, c1h);
    bs = _mm512_set1_pd(bp[b2]);
    c2l = _mm512_fmadd_pd(a_lo, bs, c2l);
    c2h = _mm512_fmadd_pd(a_hi, bs, c2h);
    bs = _mm512_set1_pd(bp[b3]);
    c3l = _mm512_fmadd_pd(a_lo, bs, c3l);
    c3h = _mm512_fmadd_pd(a_hi, bs, c3h);
  }
  const __m512d acc_lo[4] = {c0l, c1l, c2l, c3l};
  const __m512d acc_hi[4] = {c0h, c1h, c2h, c3h};
  for (index_t s = 0; s < cols; ++s) {
    double* cs = c + s * ldc;
    _mm512_mask_storeu_pd(
        cs, m_lo, _mm512_add_pd(_mm512_maskz_loadu_pd(m_lo, cs), acc_lo[s]));
    _mm512_mask_storeu_pd(
        cs + 8, m_hi,
        _mm512_add_pd(_mm512_maskz_loadu_pd(m_hi, cs + 8), acc_hi[s]));
  }
}

void avx512_edge(index_t kc, const double* ap, const double* bp, double* c,
                 index_t ldc, index_t mr_eff, index_t nr_eff) {
  const auto rows_mask = [](index_t live) {
    return static_cast<__mmask8>((1u << std::clamp<index_t>(live, 0, 8)) - 1);
  };
  const __mmask8 m_lo = rows_mask(mr_eff);
  const __mmask8 m_hi = rows_mask(mr_eff - 8);
  for (index_t s = 0; s < nr_eff; s += 4) {
    avx512_edge_cols(kc, ap, bp + s, c + s * ldc, ldc, m_lo, m_hi,
                     std::min<index_t>(4, nr_eff - s));
  }
}

bool avx512_supported() {
  // GCC's check also requires the OS to have enabled the zmm state (XCR0).
  return __builtin_cpu_supports("avx512f");
}

#else

// Never dispatched: supported() is false without the ISA.
constexpr MicroKernelFn avx512_full = nullptr;
constexpr EdgeKernelFn avx512_edge = nullptr;
bool avx512_supported() { return false; }

#endif  // __AVX512F__ && __FMA__

}  // namespace

const GemmKernel& avx512_kernel() {
  static const GemmKernel k{"avx512",
                            kMr,
                            kNr,
                            /*mc=*/192,
                            /*kc=*/256,
                            /*nc=*/1020,
                            avx512_full,
                            avx512_edge,
                            avx512_supported,
                            /*priority=*/200};
  return k;
}

}  // namespace srumma::blas::detail
