#include "blas/vendor_nv.h"

#include "blas/kernels.h"
#include "simt/simt.h"

namespace nvblas {

struct HandleRec {
  simt::Device* dev = nullptr;
  simt::Stream* stream = nullptr;  // null = default stream
};

namespace {

/// The vendor lock: nvblas only runs on the CUDA-shaped device.
simt::Device& the_device() { return simt::sim_a100(); }

bool on_right_device(const HandleRec* h) {
  return h != nullptr && h->dev == &the_device();
}

/// Where and as what an nvblas kernel launches on the handle's stream.
blas_kernels::Launch on(HandleRec* h, const char* name, int regs = 24) {
  simt::Stream& s =
      h->stream != nullptr ? *h->stream : h->dev->default_stream();
  return {s, name, "nvblas", regs};
}

template <typename T>
Status axpy(Handle h, const char* name, int n, const T* alpha, const T* x,
            int incx, T* y, int incy) {
  if (!on_right_device(h)) return kNotInitialized;
  if (n < 0 || incx <= 0 || incy <= 0 || alpha == nullptr || x == nullptr ||
      y == nullptr)
    return kInvalidValue;
  blas_kernels::axpy(on(h, name), n, *alpha, x, incx, y, incy);
  return kSuccess;
}

template <typename T>
Status dot(Handle h, const char* name, int n, const T* x, int incx,
           const T* y, int incy, T* result) {
  if (!on_right_device(h)) return kNotInitialized;
  if (n < 0 || incx <= 0 || incy <= 0 || x == nullptr || y == nullptr ||
      result == nullptr)
    return kInvalidValue;
  *result =
      static_cast<T>(blas_kernels::dot(on(h, name), n, x, incx, y, incy));
  return kSuccess;
}

template <typename T>
Status gemm(Handle h, const char* name, int regs, Operation transa,
            Operation transb, int m, int n, int k, const T* alpha, const T* a,
            int lda, const T* b, int ldb, const T* beta, T* c, int ldc) {
  if (!on_right_device(h)) return kNotInitialized;
  if (m < 0 || n < 0 || k < 0 || alpha == nullptr || beta == nullptr ||
      a == nullptr || b == nullptr || c == nullptr)
    return kInvalidValue;
  if (lda < (transa == kOpN ? m : k) || ldb < (transb == kOpN ? k : n) ||
      ldc < m)
    return kInvalidValue;
  blas_kernels::gemm(on(h, name, regs), transa != kOpN, transb != kOpN, m, n,
                     k, *alpha, a, lda, b, ldb, *beta, c, ldc);
  return kSuccess;
}

}  // namespace

const char* status_string(Status s) {
  switch (s) {
    case kSuccess: return "NVBLAS_STATUS_SUCCESS";
    case kNotInitialized: return "NVBLAS_STATUS_NOT_INITIALIZED";
    case kInvalidValue: return "NVBLAS_STATUS_INVALID_VALUE";
    case kArchMismatch: return "NVBLAS_STATUS_ARCH_MISMATCH";
    case kExecutionFailed: return "NVBLAS_STATUS_EXECUTION_FAILED";
  }
  return "NVBLAS_STATUS_?";
}

Status create(Handle* handle) {
  if (handle == nullptr) return kInvalidValue;
  *handle = new HandleRec{&the_device(), nullptr};
  return kSuccess;
}

Status destroy(Handle handle) {
  if (handle == nullptr) return kNotInitialized;
  delete handle;
  return kSuccess;
}

Status set_stream(Handle handle, simt::Stream* stream) {
  if (handle == nullptr) return kNotInitialized;
  handle->stream = stream;
  return kSuccess;
}

Status daxpy(Handle h, int n, const double* alpha, const double* x, int incx,
             double* y, int incy) {
  return axpy(h, "nvblas_daxpy", n, alpha, x, incx, y, incy);
}

Status ddot(Handle h, int n, const double* x, int incx, const double* y,
            int incy, double* result) {
  return dot(h, "nvblas_ddot", n, x, incx, y, incy, result);
}

Status dscal(Handle h, int n, const double* alpha, double* x, int incx) {
  if (!on_right_device(h)) return kNotInitialized;
  if (n < 0 || incx <= 0 || alpha == nullptr || x == nullptr)
    return kInvalidValue;
  blas_kernels::scal(on(h, "nvblas_dscal"), n, *alpha, x, incx);
  return kSuccess;
}

Status dnrm2(Handle h, int n, const double* x, int incx, double* result) {
  if (!on_right_device(h)) return kNotInitialized;
  if (n < 0 || incx <= 0 || x == nullptr || result == nullptr)
    return kInvalidValue;
  *result = blas_kernels::nrm2(on(h, "nvblas_dnrm2"), n, x, incx);
  return kSuccess;
}

Status dgemm(Handle h, Operation transa, Operation transb, int m, int n, int k,
             const double* alpha, const double* a, int lda, const double* b,
             int ldb, const double* beta, double* c, int ldc) {
  return gemm(h, "nvblas_dgemm", 64, transa, transb, m, n, k, alpha, a, lda, b,
              ldb, beta, c, ldc);
}

Status dgemv(Handle h, Operation trans, int m, int n, const double* alpha,
             const double* a, int lda, const double* x, int incx,
             const double* beta, double* y, int incy) {
  if (!on_right_device(h)) return kNotInitialized;
  if (m < 0 || n < 0 || incx <= 0 || incy <= 0 || alpha == nullptr ||
      beta == nullptr || a == nullptr || x == nullptr || y == nullptr ||
      lda < m)
    return kInvalidValue;
  blas_kernels::gemv(on(h, "nvblas_dgemv"), trans != kOpN, m, n, *alpha, a,
                     lda, x, incx, *beta, y, incy);
  return kSuccess;
}

Status saxpy(Handle h, int n, const float* alpha, const float* x, int incx,
             float* y, int incy) {
  return axpy(h, "nvblas_saxpy", n, alpha, x, incx, y, incy);
}

Status sdot(Handle h, int n, const float* x, int incx, const float* y,
            int incy, float* result) {
  return dot(h, "nvblas_sdot", n, x, incx, y, incy, result);
}

Status sgemm(Handle h, Operation transa, Operation transb, int m, int n, int k,
             const float* alpha, const float* a, int lda, const float* b,
             int ldb, const float* beta, float* c, int ldc) {
  return gemm(h, "nvblas_sgemm", 48, transa, transb, m, n, k, alpha, a, lda, b,
              ldb, beta, c, ldc);
}

}  // namespace nvblas
