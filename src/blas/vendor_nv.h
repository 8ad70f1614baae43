// nvblas: a simulated "cuBLAS"-shaped vendor library.
//
// Exists so the paper's §3.6 wrapper layer has a real vendor-locked
// library to dispatch to: every entry point refuses to run on anything
// but the CUDA-shaped device (sim-a100), mirroring cuBLAS's CUDA-only
// contract. Kernels execute on the SIMT engine with honest roofline
// cost declarations.
//
// API shape mirrors cuBLAS v2: an opaque handle, status codes, column-
// major matrices, alpha/beta scaling factors passed by pointer. Vector
// increments (incx, incy) must be positive: a zero or negative increment
// returns kInvalidValue. The kernel bodies are shared with rocblas
// (src/blas/kernels.h); only this API surface is nvblas's own.
#pragma once

#include <cstddef>

namespace simt {
class Stream;
}

namespace nvblas {

enum Status : int {
  kSuccess = 0,
  kNotInitialized = 1,
  kInvalidValue = 7,
  kArchMismatch = 8,   ///< called on a non-CUDA-shaped device
  kExecutionFailed = 13,
};

enum Operation : int { kOpN = 0, kOpT = 1 };

struct HandleRec;
using Handle = HandleRec*;

Status create(Handle* handle);
Status destroy(Handle handle);
Status set_stream(Handle handle, simt::Stream* stream);

/// y = alpha*x + y
Status daxpy(Handle handle, int n, const double* alpha, const double* x,
             int incx, double* y, int incy);
/// result = x . y
Status ddot(Handle handle, int n, const double* x, int incx, const double* y,
            int incy, double* result);
/// x = alpha*x
Status dscal(Handle handle, int n, const double* alpha, double* x, int incx);
/// result = ||x||_2
Status dnrm2(Handle handle, int n, const double* x, int incx, double* result);
/// C = alpha*op(A)*op(B) + beta*C, column-major, lda/ldb/ldc leading dims.
Status dgemm(Handle handle, Operation transa, Operation transb, int m, int n,
             int k, const double* alpha, const double* a, int lda,
             const double* b, int ldb, const double* beta, double* c, int ldc);
/// y = alpha*op(A)*x + beta*y
Status dgemv(Handle handle, Operation trans, int m, int n, const double* alpha,
             const double* a, int lda, const double* x, int incx,
             const double* beta, double* y, int incy);

// Single-precision variants (cuBLAS S-prefix entry points).
Status saxpy(Handle handle, int n, const float* alpha, const float* x,
             int incx, float* y, int incy);
Status sdot(Handle handle, int n, const float* x, int incx, const float* y,
            int incy, float* result);
Status sgemm(Handle handle, Operation transa, Operation transb, int m, int n,
             int k, const float* alpha, const float* a, int lda,
             const float* b, int ldb, const float* beta, float* c, int ldc);

const char* status_string(Status s);

}  // namespace nvblas
