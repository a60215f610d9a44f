// Kernel verification harness: every kernel in the registry — present and
// future — must match the gemm_naive oracle over a randomized grid of
// shapes, transposes, non-tight leading dimensions, alpha/beta values and
// register-tile edge cases.  Any new micro-kernel only has to register
// itself to inherit this coverage (and the sanitizer sweep in
// scripts/check.sh runs this binary under ASan/UBSan).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "blas/gemm.hpp"
#include "blas/kernel.hpp"
#include "tests/helpers.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace srumma {
namespace {

using blas::Trans;

// Normwise relative error: max |diff| / max(1, max |ref|).  With values in
// [-1, 1) and k <= a few hundred this sits orders of magnitude under the
// 1e-12 acceptance bound for any summation order (including FMA kernels).
double rel_error(ConstMatrixView out, ConstMatrixView ref) {
  double max_ref = 0.0;
  for (index_t j = 0; j < ref.cols(); ++j)
    for (index_t i = 0; i < ref.rows(); ++i)
      max_ref = std::max(max_ref, std::abs(ref(i, j)));
  return max_abs_diff(out, ref) / std::max(1.0, max_ref);
}

// One randomized case: padded storage (ld > rows), random alpha, the
// beta in {0, 1, 0.5} acceptance set, random C prior contents.
void check_case(const blas::GemmKernel& kern, Rng& rng, index_t m, index_t n,
                index_t k, Trans ta, Trans tb, double beta) {
  const index_t a_rows = ta == Trans::No ? m : k;
  const index_t a_cols = ta == Trans::No ? k : m;
  const index_t b_rows = tb == Trans::No ? k : n;
  const index_t b_cols = tb == Trans::No ? n : k;
  const index_t lda = a_rows + static_cast<index_t>(rng.below(7));
  const index_t ldb = b_rows + static_cast<index_t>(rng.below(7));
  const index_t ldc = m + static_cast<index_t>(rng.below(7));
  const double alpha = rng.below(8) == 0 ? 0.0 : rng.uniform(-2.0, 2.0);

  AlignedVector<double> a(static_cast<std::size_t>(lda * a_cols), 0.0);
  AlignedVector<double> b(static_cast<std::size_t>(ldb * b_cols), 0.0);
  AlignedVector<double> c_out(static_cast<std::size_t>(ldc * n), 0.0);
  AlignedVector<double> c_ref(static_cast<std::size_t>(ldc * n), 0.0);
  fill_random(MatrixView(a.data(), a_rows, a_cols, lda), rng.next());
  fill_random(MatrixView(b.data(), b_rows, b_cols, ldb), rng.next());
  fill_random(MatrixView(c_out.data(), m, n, ldc), rng.next());
  c_ref = c_out;

  blas::gemm_naive(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
                   c_ref.data(), ldc);
  blas::gemm_blocked_with(kern, ta, tb, m, n, k, alpha, a.data(), lda,
                          b.data(), ldb, beta, c_out.data(), ldc);

  EXPECT_LE(rel_error(ConstMatrixView(c_out.data(), m, n, ldc),
                      ConstMatrixView(c_ref.data(), m, n, ldc)),
            1e-12)
      << kern.name << ": m=" << m << " n=" << n << " k=" << k
      << " ta=" << static_cast<char>(ta) << " tb=" << static_cast<char>(tb)
      << " lda=" << lda << " ldb=" << ldb << " ldc=" << ldc
      << " alpha=" << alpha << " beta=" << beta;
}

class KernelVerification
    : public ::testing::TestWithParam<const blas::GemmKernel*> {
 protected:
  void SetUp() override {
    if (!GetParam()->supported())
      GTEST_SKIP() << GetParam()->name << " is not supported on this CPU";
  }
};

TEST_P(KernelVerification, MatchesNaiveOnRandomizedGrid) {
  const blas::GemmKernel& kern = *GetParam();
  Rng rng(20260806);
  const Trans ts[] = {Trans::No, Trans::Yes};
  const double betas[] = {0.0, 1.0, 0.5};
  int trial = 0;
  for (Trans ta : ts) {
    for (Trans tb : ts) {
      for (int rep = 0; rep < 9; ++rep, ++trial) {
        index_t m = 1 + static_cast<index_t>(rng.below(190));
        index_t n = 1 + static_cast<index_t>(rng.below(190));
        index_t k = 1 + static_cast<index_t>(rng.below(300));
        if (rep % 3 == 1) {
          // Bias toward register-tile edges: one off a tile multiple.
          m = kern.mr * (1 + static_cast<index_t>(rng.below(4))) - 1;
          n = kern.nr * (1 + static_cast<index_t>(rng.below(4))) + 1;
        } else if (rep % 3 == 2) {
          // Exact tile multiples (pure full-tile path).
          m = kern.mr * (1 + static_cast<index_t>(rng.below(6)));
          n = kern.nr * (1 + static_cast<index_t>(rng.below(6)));
        }
        check_case(kern, rng, m, n, k, ta, tb, betas[trial % 3]);
      }
    }
  }
}

TEST_P(KernelVerification, CrossesCacheBlockBoundaries) {
  // Shapes straddling the kernel's own mc/kc/nc blocking, so the jc/pc/ic
  // loops all take more than one trip and beta is applied exactly once.
  const blas::GemmKernel& kern = *GetParam();
  Rng rng(7);
  check_case(kern, rng, kern.mc + kern.mr + 3, kern.nr + 1, kern.kc + 17,
             Trans::No, Trans::No, 0.5);
  check_case(kern, rng, kern.mc + 1, 2 * kern.nr, kern.kc + 1, Trans::Yes,
             Trans::Yes, 1.0);
}

TEST_P(KernelVerification, EveryEdgeTileShape) {
  // Every live corner the edge path can see, mr_eff in [1, mr] x nr_eff in
  // [1, nr], each next to a full tile and with k crossing kc, so masked or
  // partial tails are exercised at every lane count and both pc trips.
  const blas::GemmKernel& kern = *GetParam();
  Rng rng(1312);
  for (Trans t : {Trans::No, Trans::Yes}) {
    for (index_t mr_eff = 1; mr_eff <= kern.mr; ++mr_eff) {
      for (index_t nr_eff = 1; nr_eff <= kern.nr; ++nr_eff) {
        check_case(kern, rng, kern.mr + mr_eff, kern.nr + nr_eff,
                   kern.kc + 3, t, t, 1.0);
      }
    }
  }
}

TEST_P(KernelVerification, DeterministicRunToRun) {
  // The same call must produce bit-identical output (no uninitialized
  // packing lanes can leak into results).
  const blas::GemmKernel& kern = *GetParam();
  const index_t m = 3 * kern.mr - 1, n = 2 * kern.nr + 1, k = 97;
  Matrix a(m, k), b(k, n), c1(m, n), c2(m, n);
  fill_random(a.view(), 1);
  fill_random(b.view(), 2);
  blas::gemm_blocked_with(kern, Trans::No, Trans::No, m, n, k, 1.0, a.data(),
                          a.ld(), b.data(), b.ld(), 0.0, c1.data(), c1.ld());
  blas::gemm_blocked_with(kern, Trans::No, Trans::No, m, n, k, 1.0, a.data(),
                          a.ld(), b.data(), b.ld(), 0.0, c2.data(), c2.ld());
  EXPECT_EQ(max_abs_diff(c1.view(), c2.view()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, KernelVerification,
    ::testing::ValuesIn(blas::kernel_registry()),
    [](const ::testing::TestParamInfo<const blas::GemmKernel*>& pinfo) {
      return std::string(pinfo.param->name);
    });

TEST(KernelRegistry, BaselineKernelsAlwaysPresent) {
  ASSERT_NE(blas::find_kernel("scalar"), nullptr);
  EXPECT_TRUE(blas::find_kernel("scalar")->supported());
  EXPECT_EQ(blas::find_kernel("no-such-kernel"), nullptr);
  for (const blas::GemmKernel* k : blas::kernel_registry()) {
    EXPECT_GT(k->mr, 0);
    EXPECT_GT(k->nr, 0);
    EXPECT_EQ(k->mc % k->mr, 0) << k->name << ": mc must be a multiple of mr";
    EXPECT_EQ(k->nc % k->nr, 0) << k->name << ": nc must be a multiple of nr";
  }
}

TEST(KernelRegistry, AutoSelectsHighestPrioritySupportedKernel) {
  const char* env = std::getenv("SRUMMA_GEMM_KERNEL");
  if (env != nullptr && std::string(env) != "auto")
    GTEST_SKIP() << "SRUMMA_GEMM_KERNEL pins the dispatch to " << env;
  const blas::GemmKernel* best = nullptr;
  for (const blas::GemmKernel* k : blas::kernel_registry()) {
    if (k->supported() && (best == nullptr || k->priority > best->priority))
      best = k;
  }
  ASSERT_NE(best, nullptr);
  EXPECT_STREQ(blas::active_kernel().name, best->name);
}

TEST(KernelRegistry, PinAndRestoreActiveKernel) {
  const std::string before = blas::active_kernel().name;
  blas::set_active_kernel("scalar");
  EXPECT_STREQ(blas::active_kernel().name, "scalar");
  // Dispatch goes through the pinned kernel.
  Matrix a(9, 9), b(9, 9), c(9, 9), c_ref(9, 9);
  fill_random(a.view(), 3);
  fill_random(b.view(), 4);
  blas::gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view());
  blas::gemm_blocked_with(*blas::find_kernel("scalar"), Trans::No, Trans::No,
                          9, 9, 9, 1.0, a.data(), a.ld(), b.data(), b.ld(),
                          0.0, c_ref.data(), c_ref.ld());
  EXPECT_EQ(max_abs_diff(c.view(), c_ref.view()), 0.0);
  EXPECT_THROW(blas::set_active_kernel("no-such-kernel"), Error);
  EXPECT_STREQ(blas::active_kernel().name, "scalar");  // pin survives errors
  // Restore the startup selection (honoring an env-var pin if present).
  const char* env = std::getenv("SRUMMA_GEMM_KERNEL");
  blas::set_active_kernel(env == nullptr ? "auto" : env);
  EXPECT_EQ(blas::active_kernel().name, before);
}

TEST(KernelRegistry, ScalarKernelMatchesSeedAlgorithmExactly) {
  // The scalar kernel is the numerical baseline: its result must be
  // bit-identical to the seed's fixed 8x4 blocked loop nest, reproduced
  // here verbatim (pack with alpha folded in, p-s-r accumulation order,
  // 128/256/1024 blocking).  A tolerance would hide reassociation bugs.
  const index_t m = 137, n = 41, k = 300;  // crosses mc and kc boundaries
  Matrix a(m, k), b(k, n), c_kernel(m, n), c_seed(m, n);
  fill_random(a.view(), 11);
  fill_random(b.view(), 12);
  fill_random(c_kernel.view(), 13);
  c_seed = c_kernel;
  const double alpha = -1.25, beta = 0.5;

  blas::gemm_blocked_with(*blas::find_kernel("scalar"), Trans::No, Trans::No,
                          m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(),
                          beta, c_kernel.data(), c_kernel.ld());

  // Seed algorithm, inlined.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) c_seed(i, j) *= beta;
  constexpr index_t kMc = 128, kKc = 256, kNc = 1024, kMr = 8, kNr = 4;
  std::vector<double> ap(kMc * kKc, 0.0), bp(kKc * kNc, 0.0);
  for (index_t jc = 0; jc < n; jc += kNc) {
    const index_t nc = std::min(kNc, n - jc);
    for (index_t pc = 0; pc < k; pc += kKc) {
      const index_t kc = std::min(kKc, k - pc);
      for (index_t j0 = 0; j0 < nc; j0 += kNr) {
        const index_t nr = std::min(kNr, nc - j0);
        double* bpp = bp.data() + (j0 / kNr) * kc * kNr;
        for (index_t p = 0; p < kc; ++p) {
          for (index_t s = 0; s < nr; ++s)
            bpp[p * kNr + s] = b(pc + p, jc + j0 + s);
          for (index_t s = nr; s < kNr; ++s) bpp[p * kNr + s] = 0.0;
        }
      }
      for (index_t ic = 0; ic < m; ic += kMc) {
        const index_t mc = std::min(kMc, m - ic);
        for (index_t i0 = 0; i0 < mc; i0 += kMr) {
          const index_t mr = std::min(kMr, mc - i0);
          double* app = ap.data() + (i0 / kMr) * kc * kMr;
          for (index_t p = 0; p < kc; ++p) {
            for (index_t r = 0; r < mr; ++r)
              app[p * kMr + r] = alpha * a(ic + i0 + r, pc + p);
            for (index_t r = mr; r < kMr; ++r) app[p * kMr + r] = 0.0;
          }
        }
        for (index_t j0 = 0; j0 < nc; j0 += kNr) {
          const index_t nr = std::min(kNr, nc - j0);
          const double* bpp = bp.data() + (j0 / kNr) * kc * kNr;
          for (index_t i0 = 0; i0 < mc; i0 += kMr) {
            const index_t mr = std::min(kMr, mc - i0);
            const double* app = ap.data() + (i0 / kMr) * kc * kMr;
            double acc[kMr][kNr] = {};
            for (index_t p = 0; p < kc; ++p) {
              const double* av = app + p * kMr;
              const double* bv = bpp + p * kNr;
              for (index_t s = 0; s < kNr; ++s) {
                const double bsv = bv[s];
                for (index_t r = 0; r < kMr; ++r) acc[r][s] += av[r] * bsv;
              }
            }
            for (index_t s = 0; s < nr; ++s)
              for (index_t r = 0; r < mr; ++r)
                c_seed(ic + i0 + r, jc + j0 + s) += acc[r][s];
          }
        }
      }
    }
  }
  EXPECT_EQ(max_abs_diff(c_kernel.view(), c_seed.view()), 0.0);
}

}  // namespace
}  // namespace srumma
