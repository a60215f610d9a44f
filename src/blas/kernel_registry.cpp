// Kernel registry and runtime dispatch.  Selection happens once, on first
// use: SRUMMA_GEMM_KERNEL pins a kernel by name (tests use this to make
// runs reproducible across hosts), otherwise the highest-priority kernel
// whose supported() check passes wins.

#include "blas/kernel.hpp"

#include <atomic>
#include <mutex>
#include <sstream>

#include "util/env.hpp"
#include "util/error.hpp"

namespace srumma::blas {

namespace detail {
#if defined(SRUMMA_HAVE_AVX2_KERNEL)
const GemmKernel& avx2_kernel();
#endif
#if defined(SRUMMA_HAVE_AVX512_KERNEL)
const GemmKernel& avx512_kernel();
#endif
}  // namespace detail

const std::vector<const GemmKernel*>& kernel_registry() {
  static const std::vector<const GemmKernel*> registry = [] {
    std::vector<const GemmKernel*> v;
    v.push_back(&detail::scalar_kernel());
#if defined(SRUMMA_HAVE_AVX2_KERNEL)
    v.push_back(&detail::avx2_kernel());
#endif
#if defined(SRUMMA_HAVE_AVX512_KERNEL)
    v.push_back(&detail::avx512_kernel());
#endif
    return v;
  }();
  return registry;
}

const GemmKernel* find_kernel(std::string_view name) {
  for (const GemmKernel* k : kernel_registry()) {
    if (name == k->name) return k;
  }
  return nullptr;
}

namespace {

std::once_flag g_dispatch_once;
std::atomic<const GemmKernel*> g_active{nullptr};

const GemmKernel* auto_select() {
  const GemmKernel* best = nullptr;
  for (const GemmKernel* k : kernel_registry()) {
    if (k->supported() && (best == nullptr || k->priority > best->priority)) {
      best = k;
    }
  }
  SRUMMA_ASSERT(best != nullptr, "gemm kernel registry has no usable kernel");
  return best;
}

std::string known_kernel_names() {
  std::ostringstream os;
  os << "auto";
  for (const GemmKernel* k : kernel_registry()) os << "|" << k->name;
  return os.str();
}

const GemmKernel* resolve(std::string_view name) {
  if (name.empty() || name == "auto") return auto_select();
  const GemmKernel* k = find_kernel(name);
  SRUMMA_REQUIRE(k != nullptr, "unknown gemm kernel '" + std::string(name) +
                                   "' (valid: " + known_kernel_names() + ")");
  SRUMMA_REQUIRE(k->supported(), "gemm kernel '" + std::string(name) +
                                     "' is not supported on this CPU");
  return k;
}

void init_dispatch() {
  std::call_once(g_dispatch_once, [] {
    g_active.store(resolve(env::text("SRUMMA_GEMM_KERNEL").value_or("auto")),
                   std::memory_order_release);
  });
}

}  // namespace

const GemmKernel& active_kernel() {
  init_dispatch();
  return *g_active.load(std::memory_order_acquire);
}

void set_active_kernel(std::string_view name) {
  const GemmKernel* k = resolve(name);  // throws before touching state
  init_dispatch();                      // an explicit pin outranks the env
  g_active.store(k, std::memory_order_release);
}

}  // namespace srumma::blas
