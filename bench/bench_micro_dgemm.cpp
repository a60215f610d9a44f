// Micro-benchmark (google-benchmark): the real serial dgemm kernels that
// back the numerics — every registered micro-kernel, blocked vs naive, plus
// transposed variants.  These run actual floating-point work on this host
// (they are the one bench not in virtual time).
//
// "BM_GemmBlocked" exercises whatever kernel dispatch selected (honouring
// SRUMMA_GEMM_KERNEL); the dynamically registered "BM_GemmKernel/<name>/<n>"
// (squares) and "BM_GemmKernel/<name>/NN|TN" (end-to-end workload block
// shapes) series pin each supported kernel in turn so they can be compared
// in one run.

#include <benchmark/benchmark.h>

#include <string>

#include "blas/gemm.hpp"
#include "blas/kernel.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace {

using srumma::index_t;
using srumma::Matrix;
using srumma::blas::GemmKernel;
using srumma::blas::Trans;

void setup(index_t n, Matrix& a, Matrix& b, Matrix& c) {
  a = Matrix(n, n);
  b = Matrix(n, n);
  c = Matrix(n, n);
  srumma::fill_random(a.view(), 1);
  srumma::fill_random(b.view(), 2);
}

double gemm_flops(index_t m, index_t n, index_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

void set_gflops(benchmark::State& state, double flops_per_iter) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops_per_iter * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_GemmBlocked(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix a, b, c;
  setup(n, a, b, c);
  for (auto _ : state) {
    srumma::blas::gemm_blocked(Trans::No, Trans::No, n, n, n, 1.0, a.data(),
                               n, b.data(), n, 0.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(srumma::blas::active_kernel().name);
  set_gflops(state, gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmNaive(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix a, b, c;
  setup(n, a, b, c);
  for (auto _ : state) {
    srumma::blas::gemm_naive(Trans::No, Trans::No, n, n, n, 1.0, a.data(), n,
                             b.data(), n, 0.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmBlockedTransposed(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix a, b, c;
  setup(n, a, b, c);
  for (auto _ : state) {
    srumma::blas::gemm_blocked(Trans::Yes, Trans::Yes, n, n, n, 1.0, a.data(),
                               n, b.data(), n, 0.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmBlockedTransposed)->Arg(128)->Arg(256);

// Panel shapes SRUMMA actually feeds the kernel (tall C tile x k-chunk).
void BM_GemmPanel(benchmark::State& state) {
  const index_t m = state.range(0);
  const index_t k = state.range(1);
  Matrix a(m, k), b(k, m), c(m, m);
  srumma::fill_random(a.view(), 3);
  srumma::fill_random(b.view(), 4);
  for (auto _ : state) {
    srumma::blas::gemm_blocked(Trans::No, Trans::No, m, m, k, 1.0, a.data(),
                               m, b.data(), k, 1.0, c.data(), m);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, gemm_flops(m, m, k));
}
BENCHMARK(BM_GemmPanel)->Args({256, 64})->Args({256, 128})->Args({512, 128});

// One square-gemm series per registered kernel, pinned explicitly so a
// single run reports scalar vs avx2 vs avx512 side by side.
void BM_GemmKernel(benchmark::State& state, const GemmKernel* kern) {
  const index_t n = state.range(0);
  Matrix a, b, c;
  setup(n, a, b, c);
  for (auto _ : state) {
    srumma::blas::gemm_blocked_with(*kern, Trans::No, Trans::No, n, n, n, 1.0,
                                    a.data(), n, b.data(), n, 0.0, c.data(),
                                    n);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, gemm_flops(n, n, n));
}

// Per-kernel series on the block products the real-data end-to-end
// workloads run (bench/e2e): C(m x n) += op(A)(m x k) * B(k x n), as one
// SRUMMA task does.  Args are {m, n, k}.
void BM_GemmKernelPanel(benchmark::State& state, const GemmKernel* kern,
                        Trans ta) {
  const index_t m = state.range(0);
  const index_t n = state.range(1);
  const index_t k = state.range(2);
  const index_t a_rows = ta == Trans::No ? m : k;
  Matrix a(a_rows, ta == Trans::No ? k : m), b(k, n), c(m, n);
  srumma::fill_random(a.view(), 3);
  srumma::fill_random(b.view(), 4);
  for (auto _ : state) {
    srumma::blas::gemm_blocked_with(*kern, ta, Trans::No, m, n, k, 1.0,
                                    a.data(), a_rows, b.data(), k, 1.0,
                                    c.data(), m);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, gemm_flops(m, n, k));
}

void register_per_kernel_benches() {
  for (const GemmKernel* kern : srumma::blas::kernel_registry()) {
    if (!kern->supported()) continue;
    const std::string name = "BM_GemmKernel/" + std::string(kern->name);
    benchmark::RegisterBenchmark(name.c_str(), BM_GemmKernel, kern)
        ->Arg(256)
        ->Arg(512)
        ->Arg(1024);
    // cluster_nn_real's task shape, then sp_tn_engine_cache_real's.
    benchmark::RegisterBenchmark((name + "/NN").c_str(), BM_GemmKernelPanel,
                                 kern, Trans::No)
        ->Args({1024, 512, 128});
    benchmark::RegisterBenchmark((name + "/TN").c_str(), BM_GemmKernelPanel,
                                 kern, Trans::Yes)
        ->Args({256, 512, 64});
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_per_kernel_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
