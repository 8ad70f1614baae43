#include "blas/vendor_roc.h"

#include "blas/kernels.h"
#include "simt/simt.h"

namespace rocblas {

struct HandleRec {
  simt::Device* dev = nullptr;
  simt::Stream* stream = nullptr;
};

namespace {

/// The vendor lock: rocblas only runs on the HIP-shaped device.
simt::Device& the_device() { return simt::sim_mi250(); }

bool valid(const HandleRec* h) {
  return h != nullptr && h->dev == &the_device();
}

/// Where and as what a rocblas kernel launches on the handle's stream.
blas_kernels::Launch on(HandleRec* h, const char* name, int regs = 28) {
  simt::Stream& s =
      h->stream != nullptr ? *h->stream : h->dev->default_stream();
  return {s, name, "rocblas", regs};
}

bool transposed(Operation o) { return o != Operation::kNone; }

template <typename T>
Status axpy(Handle h, const char* name, int n, T alpha, const T* x, int incx,
            T* y, int incy) {
  if (!valid(h)) return Status::kInvalidHandle;
  if (n < 0 || incx <= 0 || incy <= 0) return Status::kInvalidSize;
  if (x == nullptr || y == nullptr) return Status::kInvalidPointer;
  blas_kernels::axpy(on(h, name), n, alpha, x, incx, y, incy);
  return Status::kSuccess;
}

template <typename T>
Status dot(Handle h, const char* name, int n, const T* x, int incx,
           const T* y, int incy, T* result) {
  if (!valid(h)) return Status::kInvalidHandle;
  if (n < 0 || incx <= 0 || incy <= 0) return Status::kInvalidSize;
  if (x == nullptr || y == nullptr || result == nullptr)
    return Status::kInvalidPointer;
  *result =
      static_cast<T>(blas_kernels::dot(on(h, name), n, x, incx, y, incy));
  return Status::kSuccess;
}

template <typename T>
Status gemm(Handle h, const char* name, int regs, Operation transa,
            Operation transb, int m, int n, int k, T alpha, const T* a,
            int lda, const T* b, int ldb, T beta, T* c, int ldc) {
  if (!valid(h)) return Status::kInvalidHandle;
  if (m < 0 || n < 0 || k < 0) return Status::kInvalidSize;
  if (a == nullptr || b == nullptr || c == nullptr)
    return Status::kInvalidPointer;
  if (lda < (transposed(transa) ? k : m) ||
      ldb < (transposed(transb) ? n : k) || ldc < m)
    return Status::kInvalidSize;
  blas_kernels::gemm(on(h, name, regs), transposed(transa),
                     transposed(transb), m, n, k, alpha, a, lda, b, ldb, beta,
                     c, ldc);
  return Status::kSuccess;
}

}  // namespace

const char* status_string(Status s) {
  switch (s) {
    case Status::kSuccess: return "rocblas_status_success";
    case Status::kInvalidHandle: return "rocblas_status_invalid_handle";
    case Status::kInvalidPointer: return "rocblas_status_invalid_pointer";
    case Status::kInvalidSize: return "rocblas_status_invalid_size";
    case Status::kInternalError: return "rocblas_status_internal_error";
    case Status::kInvalidValue: return "rocblas_status_invalid_value";
  }
  return "rocblas_status_?";
}

Status create_handle(Handle* handle) {
  if (handle == nullptr) return Status::kInvalidPointer;
  *handle = new HandleRec{&the_device(), nullptr};
  return Status::kSuccess;
}

Status destroy_handle(Handle handle) {
  if (handle == nullptr) return Status::kInvalidHandle;
  delete handle;
  return Status::kSuccess;
}

Status set_stream(Handle handle, simt::Stream* stream) {
  if (handle == nullptr) return Status::kInvalidHandle;
  handle->stream = stream;
  return Status::kSuccess;
}

Status daxpy(Handle h, int n, double alpha, const double* x, int incx,
             double* y, int incy) {
  return axpy(h, "rocblas_daxpy", n, alpha, x, incx, y, incy);
}

Status ddot(Handle h, int n, const double* x, int incx, const double* y,
            int incy, double* result) {
  return dot(h, "rocblas_ddot", n, x, incx, y, incy, result);
}

Status dscal(Handle h, int n, double alpha, double* x, int incx) {
  if (!valid(h)) return Status::kInvalidHandle;
  if (n < 0 || incx <= 0) return Status::kInvalidSize;
  if (x == nullptr) return Status::kInvalidPointer;
  blas_kernels::scal(on(h, "rocblas_dscal"), n, alpha, x, incx);
  return Status::kSuccess;
}

Status dnrm2(Handle h, int n, const double* x, int incx, double* result) {
  if (!valid(h)) return Status::kInvalidHandle;
  if (n < 0 || incx <= 0) return Status::kInvalidSize;
  if (x == nullptr || result == nullptr) return Status::kInvalidPointer;
  *result = blas_kernels::nrm2(on(h, "rocblas_dnrm2"), n, x, incx);
  return Status::kSuccess;
}

Status dgemm(Handle h, Operation transa, Operation transb, int m, int n, int k,
             double alpha, const double* a, int lda, const double* b, int ldb,
             double beta, double* c, int ldc) {
  return gemm(h, "rocblas_dgemm", 72, transa, transb, m, n, k, alpha, a, lda, b,
              ldb, beta, c, ldc);
}

Status dgemv(Handle h, Operation trans, int m, int n, double alpha,
             const double* a, int lda, const double* x, int incx, double beta,
             double* y, int incy) {
  if (!valid(h)) return Status::kInvalidHandle;
  if (m < 0 || n < 0 || incx <= 0 || incy <= 0) return Status::kInvalidSize;
  if (a == nullptr || x == nullptr || y == nullptr)
    return Status::kInvalidPointer;
  if (lda < m) return Status::kInvalidSize;
  blas_kernels::gemv(on(h, "rocblas_dgemv"), transposed(trans), m, n, alpha, a,
                     lda, x, incx, beta, y, incy);
  return Status::kSuccess;
}

Status saxpy(Handle h, int n, float alpha, const float* x, int incx, float* y,
             int incy) {
  return axpy(h, "rocblas_saxpy", n, alpha, x, incx, y, incy);
}

Status sdot(Handle h, int n, const float* x, int incx, const float* y,
            int incy, float* result) {
  return dot(h, "rocblas_sdot", n, x, incx, y, incy, result);
}

Status sgemm(Handle h, Operation transa, Operation transb, int m, int n, int k,
             float alpha, const float* a, int lda, const float* b, int ldb,
             float beta, float* c, int ldc) {
  return gemm(h, "rocblas_sgemm", 52, transa, transb, m, n, k, alpha, a, lda, b,
              ldb, beta, c, ldc);
}

}  // namespace rocblas
