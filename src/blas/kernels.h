// Kernel bodies shared by the two simulated vendor BLAS libraries.
//
// nvblas and rocblas differ in their API surfaces (scalars by pointer
// or by value, status and transpose enums, validation order), not in
// what runs on the device: each routine family has exactly one body
// here. A Launch descriptor carries the only values that differ between
// the vendors: the stream, the kernel name, the profile library name
// and the register count. Internal to src/blas; no public header
// includes it.
//
// Callers validate their arguments first (increments are positive,
// pointers non-null); an empty problem launches nothing.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "simt/simt.h"

namespace blas_kernels {

struct Launch {
  simt::Stream& stream;
  const char* name;     ///< kernel name, e.g. "nvblas_daxpy"
  const char* library;  ///< CompilerProfile::name
  int regs_per_thread;
};

namespace detail {

/// Flattened global thread id / total threads, for grid-stride loops.
inline std::int64_t tid() {
  const auto& t = simt::this_thread();
  return static_cast<std::int64_t>(t.block_idx.x) * t.block_dim.x +
         t.thread_idx.x;
}
inline std::int64_t total_threads() {
  const auto& t = simt::this_thread();
  return static_cast<std::int64_t>(t.grid_dim.count() * t.block_dim.count());
}

inline simt::LaunchParams params(const Launch& launch) {
  simt::LaunchParams p;
  p.mode = simt::ExecMode::kDirect;
  p.name = launch.name;
  p.profile.name = launch.library;
  p.profile.regs_per_thread = launch.regs_per_thread;
  return p;
}

/// 1-D grid-stride launch over n elements: 256-thread blocks (8 warps,
/// 4 wavefronts), at most 65535 of them, cost spread over the threads.
inline simt::LaunchParams vector_params(const Launch& launch, std::int64_t n,
                                        double bytes_per_elem,
                                        double flops_per_elem) {
  simt::LaunchParams p = params(launch);
  const std::uint32_t block = 256;
  p.block = {block};
  p.grid = {static_cast<std::uint32_t>(
      std::min<std::int64_t>(simt::ceil_div(n, block), 65535))};
  const double threads = static_cast<double>(p.grid.count()) * block;
  p.cost.global_bytes_per_thread = bytes_per_elem * n / threads;
  p.cost.flops_per_thread = flops_per_elem * n / threads;
  return p;
}

inline void run(const Launch& launch, const simt::LaunchParams& p,
                simt::KernelFn kernel) {
  launch.stream.launch(p, std::move(kernel));
  launch.stream.synchronize();
}

/// Sum of term(i) over i < n, accumulated in fp64. Every thread adds its
/// partial atomically into its block's own slot; a block's threads run
/// in order on one worker, so each slot's sum is fixed, and the host
/// folds the slots in block order. The result therefore does not depend
/// on how blocks interleave across workers, and the launch still counts
/// exactly one atomic per thread.
template <typename Term>
double reduce(const Launch& launch, std::int64_t n, double bytes_per_elem,
              Term term) {
  if (n <= 0) return 0.0;
  const simt::LaunchParams p = vector_params(launch, n, bytes_per_elem, 2.0);
  std::vector<double> slots(p.grid.count(), 0.0);
  double* s = slots.data();
  run(launch, p, [=] {
    const std::int64_t total = total_threads();
    double partial = 0.0;
    for (std::int64_t i = tid(); i < n; i += total) partial += term(i);
    simt::atomic_add(&s[simt::this_thread().block_idx.x], partial);
  });
  double acc = 0.0;
  for (const double v : slots) acc += v;
  return acc;
}

}  // namespace detail

/// y = alpha*x + y
template <typename T>
void axpy(const Launch& launch, int n, T alpha, const T* x, int incx, T* y,
          int incy) {
  if (n <= 0) return;
  const simt::LaunchParams p =
      detail::vector_params(launch, n, 3.0 * sizeof(T), 2.0);
  detail::run(launch, p, [=] {
    const std::int64_t total = detail::total_threads();
    for (std::int64_t i = detail::tid(); i < n; i += total)
      y[i * incy] += alpha * x[i * incx];
  });
}

/// x . y, accumulated in fp64 for either precision (as cuBLAS does).
template <typename T>
double dot(const Launch& launch, int n, const T* x, int incx, const T* y,
           int incy) {
  return detail::reduce(launch, n, 2.0 * sizeof(T), [=](std::int64_t i) {
    return static_cast<double>(x[i * incx]) * y[i * incy];
  });
}

/// x = alpha*x
inline void scal(const Launch& launch, int n, double alpha, double* x,
                 int incx) {
  if (n <= 0) return;
  detail::run(launch, detail::vector_params(launch, n, 16.0, 1.0), [=] {
    const std::int64_t total = detail::total_threads();
    for (std::int64_t i = detail::tid(); i < n; i += total)
      x[i * incx] *= alpha;
  });
}

/// ||x||_2
inline double nrm2(const Launch& launch, int n, const double* x, int incx) {
  return std::sqrt(detail::reduce(launch, n, 8.0, [=](std::int64_t i) {
    const double v = x[i * incx];
    return v * v;
  }));
}

/// C = alpha*op(A)*op(B) + beta*C, column-major; one thread per element
/// of C in 16x16 tiles.
template <typename T>
void gemm(const Launch& launch, bool transa, bool transb, int m, int n, int k,
          T alpha, const T* a, int lda, const T* b, int ldb, T beta, T* c,
          int ldc) {
  if (m == 0 || n == 0) return;
  simt::LaunchParams p = detail::params(launch);
  p.block = {16, 16};
  p.grid = {static_cast<std::uint32_t>(simt::ceil_div(m, 16)),
            static_cast<std::uint32_t>(simt::ceil_div(n, 16))};
  // fp32 runs at full rate: half the fp64 cost per flop.
  p.cost.flops_per_thread = 2.0 * k * (sizeof(T) / 8.0);
  p.cost.global_bytes_per_thread =
      sizeof(T) * (2 * k / 16.0 + 2);  // tiled reuse
  detail::run(launch, p, [=] {
    const auto& t = simt::this_thread();
    const int i = static_cast<int>(t.block_idx.x * 16 + t.thread_idx.x);
    const int j = static_cast<int>(t.block_idx.y * 16 + t.thread_idx.y);
    if (i >= m || j >= n) return;
    T sum = 0;
    for (int l = 0; l < k; ++l) {
      const T av = transa ? a[l + static_cast<std::ptrdiff_t>(i) * lda]
                          : a[i + static_cast<std::ptrdiff_t>(l) * lda];
      const T bv = transb ? b[j + static_cast<std::ptrdiff_t>(l) * ldb]
                          : b[l + static_cast<std::ptrdiff_t>(j) * ldb];
      sum += av * bv;
    }
    T& out = c[i + static_cast<std::ptrdiff_t>(j) * ldc];
    out = alpha * sum + beta * out;
  });
}

/// y = alpha*op(A)*x + beta*y, column-major m x n A; one thread per row
/// of op(A).
inline void gemv(const Launch& launch, bool trans, int m, int n, double alpha,
                 const double* a, int lda, const double* x, int incx,
                 double beta, double* y, int incy) {
  const int rows = trans ? n : m;
  const int inner = trans ? m : n;
  if (rows == 0) return;
  const simt::LaunchParams p =
      detail::vector_params(launch, rows, 8.0 * (inner + 2), 2.0 * inner);
  detail::run(launch, p, [=] {
    const std::int64_t total = detail::total_threads();
    for (std::int64_t i = detail::tid(); i < rows; i += total) {
      double sum = 0.0;
      for (int l = 0; l < inner; ++l) {
        const double av = trans ? a[l + static_cast<std::ptrdiff_t>(i) * lda]
                                : a[i + static_cast<std::ptrdiff_t>(l) * lda];
        sum += av * x[l * incx];
      }
      y[i * incy] = alpha * sum + beta * y[i * incy];
    }
  });
}

}  // namespace blas_kernels
