// rocblas_sim: a simulated "rocBLAS"-shaped vendor library, locked to
// the HIP-shaped device (sim-mi250). Deliberately *not* API-identical
// to nvblas: rocBLAS passes scalars by value and uses its own status
// and transpose enums — the ompx wrapper layer (§3.6) exists precisely
// to paper over such differences. Vector increments (incx, incy) must be
// positive: a zero or negative increment returns Status::kInvalidSize.
// The kernel bodies are shared with nvblas (src/blas/kernels.h).
#pragma once

#include <cstddef>

namespace simt {
class Stream;
}

namespace rocblas {

enum class Status : int {
  kSuccess = 0,
  kInvalidHandle = 1,
  kInvalidPointer = 3,
  kInvalidSize = 4,
  kInternalError = 6,
  kInvalidValue = 11,
};

enum class Operation : int { kNone = 111, kTranspose = 112 };

struct HandleRec;
using Handle = HandleRec*;

Status create_handle(Handle* handle);
Status destroy_handle(Handle handle);
Status set_stream(Handle handle, simt::Stream* stream);

Status daxpy(Handle handle, int n, double alpha, const double* x, int incx,
             double* y, int incy);
Status ddot(Handle handle, int n, const double* x, int incx, const double* y,
            int incy, double* result);
Status dscal(Handle handle, int n, double alpha, double* x, int incx);
Status dnrm2(Handle handle, int n, const double* x, int incx, double* result);
Status dgemm(Handle handle, Operation transa, Operation transb, int m, int n,
             int k, double alpha, const double* a, int lda, const double* b,
             int ldb, double beta, double* c, int ldc);
Status dgemv(Handle handle, Operation trans, int m, int n, double alpha,
             const double* a, int lda, const double* x, int incx, double beta,
             double* y, int incy);

// Single-precision variants (rocblas_s* entry points, scalars by value).
Status saxpy(Handle handle, int n, float alpha, const float* x, int incx,
             float* y, int incy);
Status sdot(Handle handle, int n, const float* x, int incx, const float* y,
            int incy, float* result);
Status sgemm(Handle handle, Operation transa, Operation transb, int m, int n,
             int k, float alpha, const float* a, int lda, const float* b,
             int ldb, float beta, float* c, int ldc);

const char* status_string(Status s);

}  // namespace rocblas
