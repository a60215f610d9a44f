#pragma once
// The dgemm kernel subsystem: register-tile micro-kernels behind a runtime
// dispatch.
//
// The blocked driver (gemm_blocked.cpp) factors the Goto/BLIS decomposition
// into a kernel-independent packing/blocking skeleton and a per-ISA
// register-tile micro-kernel described by GemmKernel.  Kernels are selected
// once at startup: the SRUMMA_GEMM_KERNEL environment variable if set
// (scalar | avx2 | avx512; "auto" or unset picks the highest-priority
// kernel this CPU supports via __builtin_cpu_supports).  Tests and benches
// can pin a kernel programmatically with set_active_kernel() or run one
// explicitly with gemm_blocked_with().
//
// Packed-panel formats (fixed by the driver, shared by every kernel):
//   Ap: ceil(mc/mr) panels, each kc columns of mr contiguous rows (alpha
//       folded in); panel i starts at ap + i*kc*mr and is 64-byte aligned
//       whenever mr*sizeof(double) is a multiple of 64 or kc*mr is.
//   Bp: ceil(nc/nr) panels, each kc rows of nr contiguous columns.
// Rows/columns beyond the live extent of a partial tile are left unpacked;
// the driver routes partial tiles to the kernel's edge path, which must not
// read them.

#include <string_view>
#include <vector>

#include "blas/gemm.hpp"

namespace srumma::blas {

/// Full register tile: C[0:mr, 0:nr] += Ap_panel * Bp_panel, C unpacked
/// column-major with leading dimension ldc.
using MicroKernelFn = void (*)(index_t kc, const double* ap, const double* bp,
                               double* c, index_t ldc);

/// Edge tile: same contract restricted to the live mr_eff x nr_eff corner
/// (mr_eff <= mr, nr_eff <= nr); must not touch C or the packed panels
/// outside it.
using EdgeKernelFn = void (*)(index_t kc, const double* ap, const double* bp,
                              double* c, index_t ldc, index_t mr_eff,
                              index_t nr_eff);

/// One registered micro-kernel plus the cache-blocking constants tuned for
/// it.  All instances have static storage duration; pointers returned by
/// the registry are valid for the program lifetime.
struct GemmKernel {
  const char* name;     ///< dispatch key: "scalar", "avx2", "avx512", ...
  index_t mr, nr;       ///< register tile footprint
  index_t mc, kc, nc;   ///< cache blocking (A panel mc x kc, B panel kc x nc)
  MicroKernelFn full;   ///< full mr x nr tile
  EdgeKernelFn edge;    ///< partial tails (never sees a full tile)
  bool (*supported)();  ///< runtime CPU capability check
  int priority;         ///< auto-selection rank; higher wins
};

/// Every kernel compiled into this binary, in registration order.  Entries
/// may be unsupported on the running CPU; check supported() before use.
[[nodiscard]] const std::vector<const GemmKernel*>& kernel_registry();

/// Kernel by dispatch name, or nullptr if not compiled in.
[[nodiscard]] const GemmKernel* find_kernel(std::string_view name);

/// The kernel gemm()/gemm_blocked() dispatch to.  Resolved once on first
/// use: SRUMMA_GEMM_KERNEL if set (throws srumma::Error when unknown or
/// unsupported), otherwise the highest-priority supported kernel.
[[nodiscard]] const GemmKernel& active_kernel();

/// Re-pin the active kernel by name; "auto" restores default selection.
/// Throws srumma::Error for unknown or unsupported kernels.
void set_active_kernel(std::string_view name);

/// gemm_blocked through an explicit kernel, bypassing dispatch — the entry
/// point of the kernel verification harness and the per-kernel benches.
void gemm_blocked_with(const GemmKernel& kernel, Trans ta, Trans tb, index_t m,
                       index_t n, index_t k, double alpha, const double* a,
                       index_t lda, const double* b, index_t ldb, double beta,
                       double* c, index_t ldc);

/// Bytes currently held by the calling thread's packing buffers.
[[nodiscard]] std::size_t pack_buffer_bytes();

/// Release the calling thread's packing buffers (they are grow-only
/// otherwise).  Long-lived processes and stress tests use this to keep
/// resident memory honest between phases.
void reset_pack_buffers();

namespace detail {
const GemmKernel& scalar_kernel();
}  // namespace detail

}  // namespace srumma::blas
