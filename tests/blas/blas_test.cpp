// Vendor BLAS libraries + the ompx::blas wrapper layer (§3.6).
#include "blas/ompx_blas.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace {

std::vector<double> random_vec(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

// Host reference implementations.
void ref_gemm(int m, int n, int k, double alpha, const std::vector<double>& a,
              const std::vector<double>& b, double beta,
              std::vector<double>& c) {
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double s = 0;
      for (int l = 0; l < k; ++l) s += a[i + l * m] * b[l + j * k];
      c[i + j * m] = alpha * s + beta * c[i + j * m];
    }
}

// Every LaunchStats counter and flag, as one comparable tuple.
// sched_steals is left out: it records how the host's block workers
// shared out the grid, which varies from run to run on one device too.
auto counters(const simt::LaunchStats& s) {
  return std::make_tuple(s.blocks, s.threads, s.block_barriers,
                         s.warp_collectives, s.warp_syncs, s.atomics,
                         s.runtime_init, s.generic_mode,
                         s.parallel_handshakes, s.workshare_dispatches,
                         s.globalized_bytes, s.spill_in_shared,
                         s.fibers_created, s.fiber_reuses, s.sched_lane_loops,
                         s.sched_deflations);
}

TEST(VendorNv, HandleLifecycleAndVendorLock) {
  nvblas::Handle h = nullptr;
  ASSERT_EQ(nvblas::create(&h), nvblas::kSuccess);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(nvblas::destroy(h), nvblas::kSuccess);
  EXPECT_EQ(nvblas::destroy(nullptr), nvblas::kNotInitialized);
  EXPECT_EQ(nvblas::create(nullptr), nvblas::kInvalidValue);
}

TEST(VendorNv, DaxpyAndValidation) {
  nvblas::Handle h = nullptr;
  ASSERT_EQ(nvblas::create(&h), nvblas::kSuccess);
  auto x = random_vec(1000, 1), y = random_vec(1000, 2);
  auto y0 = y;
  const double alpha = 2.5;
  ASSERT_EQ(nvblas::daxpy(h, 1000, &alpha, x.data(), 1, y.data(), 1),
            nvblas::kSuccess);
  for (int i = 0; i < 1000; ++i)
    ASSERT_NEAR(y[i], y0[i] + 2.5 * x[i], 1e-12);
  EXPECT_EQ(nvblas::daxpy(h, -1, &alpha, x.data(), 1, y.data(), 1),
            nvblas::kInvalidValue);
  EXPECT_EQ(nvblas::daxpy(h, 10, nullptr, x.data(), 1, y.data(), 1),
            nvblas::kInvalidValue);
  nvblas::destroy(h);
}

// Vectors point into the middle of a buffer, so a routine that ignored
// the increment limit would still touch only memory the test owns.
TEST(VendorNv, RejectsNonPositiveIncrements) {
  nvblas::Handle h = nullptr;
  ASSERT_EQ(nvblas::create(&h), nvblas::kSuccess);
  std::vector<double> buf(64, 1.0), a(16, 1.0);
  std::vector<float> buff(64, 1.0f);
  double* x = buf.data() + 16;
  double* y = buf.data() + 48;
  float* xf = buff.data() + 16;
  float* yf = buff.data() + 48;
  const double one = 1.0;
  const float onef = 1.0f;
  double r = 0.0;
  float rf = 0.0f;
  for (const int bad : {0, -1}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(nvblas::daxpy(h, 8, &one, x, bad, y, 1), nvblas::kInvalidValue);
    EXPECT_EQ(nvblas::daxpy(h, 8, &one, x, 1, y, bad), nvblas::kInvalidValue);
    EXPECT_EQ(nvblas::ddot(h, 8, x, bad, y, 1, &r), nvblas::kInvalidValue);
    EXPECT_EQ(nvblas::ddot(h, 8, x, 1, y, bad, &r), nvblas::kInvalidValue);
    EXPECT_EQ(nvblas::dscal(h, 8, &one, x, bad), nvblas::kInvalidValue);
    EXPECT_EQ(nvblas::dnrm2(h, 8, x, bad, &r), nvblas::kInvalidValue);
    EXPECT_EQ(nvblas::dgemv(h, nvblas::kOpN, 4, 4, &one, a.data(), 4, x, bad,
                            &one, y, 1),
              nvblas::kInvalidValue);
    EXPECT_EQ(nvblas::dgemv(h, nvblas::kOpN, 4, 4, &one, a.data(), 4, x, 1,
                            &one, y, bad),
              nvblas::kInvalidValue);
    EXPECT_EQ(nvblas::saxpy(h, 8, &onef, xf, bad, yf, 1),
              nvblas::kInvalidValue);
    EXPECT_EQ(nvblas::saxpy(h, 8, &onef, xf, 1, yf, bad),
              nvblas::kInvalidValue);
    EXPECT_EQ(nvblas::sdot(h, 8, xf, bad, yf, 1, &rf), nvblas::kInvalidValue);
    EXPECT_EQ(nvblas::sdot(h, 8, xf, 1, yf, bad, &rf), nvblas::kInvalidValue);
  }
  EXPECT_EQ(buf, std::vector<double>(64, 1.0));  // nothing ran
  EXPECT_EQ(buff, std::vector<float>(64, 1.0f));
  nvblas::destroy(h);
}

TEST(VendorRoc, DaxpyByValueScalars) {
  rocblas::Handle h = nullptr;
  ASSERT_EQ(rocblas::create_handle(&h), rocblas::Status::kSuccess);
  auto x = random_vec(500, 3), y = random_vec(500, 4);
  auto y0 = y;
  ASSERT_EQ(rocblas::daxpy(h, 500, -1.5, x.data(), 1, y.data(), 1),
            rocblas::Status::kSuccess);
  for (int i = 0; i < 500; ++i) ASSERT_NEAR(y[i], y0[i] - 1.5 * x[i], 1e-12);
  EXPECT_EQ(rocblas::daxpy(h, -1, 1.0, x.data(), 1, y.data(), 1),
            rocblas::Status::kInvalidSize);
  rocblas::destroy_handle(h);
}

TEST(VendorRoc, RejectsNonPositiveIncrements) {
  using rocblas::Status;
  rocblas::Handle h = nullptr;
  ASSERT_EQ(rocblas::create_handle(&h), Status::kSuccess);
  std::vector<double> buf(64, 1.0), a(16, 1.0);
  std::vector<float> buff(64, 1.0f);
  double* x = buf.data() + 16;
  double* y = buf.data() + 48;
  float* xf = buff.data() + 16;
  float* yf = buff.data() + 48;
  const auto op_n = rocblas::Operation::kNone;
  double r = 0.0;
  float rf = 0.0f;
  for (const int bad : {0, -1}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(rocblas::daxpy(h, 8, 1.0, x, bad, y, 1), Status::kInvalidSize);
    EXPECT_EQ(rocblas::daxpy(h, 8, 1.0, x, 1, y, bad), Status::kInvalidSize);
    EXPECT_EQ(rocblas::ddot(h, 8, x, bad, y, 1, &r), Status::kInvalidSize);
    EXPECT_EQ(rocblas::ddot(h, 8, x, 1, y, bad, &r), Status::kInvalidSize);
    EXPECT_EQ(rocblas::dscal(h, 8, 1.0, x, bad), Status::kInvalidSize);
    EXPECT_EQ(rocblas::dnrm2(h, 8, x, bad, &r), Status::kInvalidSize);
    EXPECT_EQ(
        rocblas::dgemv(h, op_n, 4, 4, 1.0, a.data(), 4, x, bad, 1.0, y, 1),
        Status::kInvalidSize);
    EXPECT_EQ(
        rocblas::dgemv(h, op_n, 4, 4, 1.0, a.data(), 4, x, 1, 1.0, y, bad),
        Status::kInvalidSize);
    EXPECT_EQ(rocblas::saxpy(h, 8, 1.0f, xf, bad, yf, 1), Status::kInvalidSize);
    EXPECT_EQ(rocblas::saxpy(h, 8, 1.0f, xf, 1, yf, bad), Status::kInvalidSize);
    EXPECT_EQ(rocblas::sdot(h, 8, xf, bad, yf, 1, &rf), Status::kInvalidSize);
    EXPECT_EQ(rocblas::sdot(h, 8, xf, 1, yf, bad, &rf), Status::kInvalidSize);
  }
  EXPECT_EQ(buf, std::vector<double>(64, 1.0));  // nothing ran
  EXPECT_EQ(buff, std::vector<float>(64, 1.0f));
  rocblas::destroy_handle(h);
}

class WrapperOnDevice : public ::testing::TestWithParam<int> {
 protected:
  simt::Device& dev() {
    return *simt::device_registry()[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(WrapperOnDevice, DispatchesToMatchingVendor) {
  ompx::blas::Handle h(dev());
  EXPECT_EQ(h.is_nvidia(), dev().config().vendor == simt::Vendor::kNvidia);
}

TEST_P(WrapperOnDevice, AxpyDotScalNrm2) {
  ompx::blas::Handle h(dev());
  auto x = random_vec(2000, 10), y = random_vec(2000, 11);
  auto y0 = y;
  h.axpy(2000, 0.75, x.data(), y.data());
  for (int i = 0; i < 2000; ++i) ASSERT_NEAR(y[i], y0[i] + 0.75 * x[i], 1e-12);

  double ref_dot = 0;
  for (int i = 0; i < 2000; ++i) ref_dot += x[i] * y[i];
  EXPECT_NEAR(h.dot(2000, x.data(), y.data()), ref_dot, 1e-9);

  auto z = x;
  h.scal(2000, 3.0, z.data());
  for (int i = 0; i < 2000; ++i) ASSERT_NEAR(z[i], 3.0 * x[i], 1e-12);

  double ref_n2 = 0;
  for (double v : x) ref_n2 += v * v;
  EXPECT_NEAR(h.nrm2(2000, x.data()), std::sqrt(ref_n2), 1e-9);
}

TEST_P(WrapperOnDevice, GemmMatchesReference) {
  const int m = 33, n = 17, k = 25;
  auto a = random_vec(static_cast<std::size_t>(m) * k, 20);
  auto b = random_vec(static_cast<std::size_t>(k) * n, 21);
  auto c = random_vec(static_cast<std::size_t>(m) * n, 22);
  auto c_ref = c;
  ref_gemm(m, n, k, 1.25, a, b, 0.5, c_ref);
  ompx::blas::Handle h(dev());
  h.gemm(ompx::blas::Op::kN, ompx::blas::Op::kN, m, n, k, 1.25, a.data(), m,
         b.data(), k, 0.5, c.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i) ASSERT_NEAR(c[i], c_ref[i], 1e-9);
}

TEST_P(WrapperOnDevice, GemmTransposed) {
  const int m = 8, n = 6, k = 10;
  // A stored as k x m (so op(A)=A^T is m x k).
  auto a = random_vec(static_cast<std::size_t>(k) * m, 30);
  auto b = random_vec(static_cast<std::size_t>(k) * n, 31);
  std::vector<double> c(static_cast<std::size_t>(m) * n, 0.0);
  ompx::blas::Handle h(dev());
  h.gemm(ompx::blas::Op::kT, ompx::blas::Op::kN, m, n, k, 1.0, a.data(), k,
         b.data(), k, 0.0, c.data(), m);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double s = 0;
      for (int l = 0; l < k; ++l) s += a[l + i * k] * b[l + j * k];
      ASSERT_NEAR(c[i + j * m], s, 1e-9);
    }
}

TEST_P(WrapperOnDevice, GemvMatchesReference) {
  const int m = 40, n = 23;
  auto a = random_vec(static_cast<std::size_t>(m) * n, 40);
  auto x = random_vec(n, 41);
  auto y = random_vec(m, 42);
  auto y_ref = y;
  for (int i = 0; i < m; ++i) {
    double s = 0;
    for (int l = 0; l < n; ++l) s += a[i + l * m] * x[l];
    y_ref[i] = 2.0 * s + 1.0 * y_ref[i];
  }
  ompx::blas::Handle h(dev());
  h.gemv(ompx::blas::Op::kN, m, n, 2.0, a.data(), m, x.data(), 1.0, y.data());
  for (int i = 0; i < m; ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-9);
}

TEST_P(WrapperOnDevice, SinglePrecisionAxpyDot) {
  ompx::blas::Handle h(dev());
  std::vector<float> x(1500), y(1500), y0;
  for (int i = 0; i < 1500; ++i) {
    x[i] = 0.25f * static_cast<float>(i % 17) - 1.0f;
    y[i] = 0.5f - 0.125f * static_cast<float>(i % 9);
  }
  y0 = y;
  h.axpy(1500, 1.5f, x.data(), y.data());
  for (int i = 0; i < 1500; ++i)
    ASSERT_FLOAT_EQ(y[i], y0[i] + 1.5f * x[i]);
  double ref = 0;
  for (int i = 0; i < 1500; ++i)
    ref += static_cast<double>(x[i]) * y[i];
  EXPECT_NEAR(h.dot(1500, x.data(), y.data()), static_cast<float>(ref), 1e-3);
}

TEST_P(WrapperOnDevice, SinglePrecisionGemm) {
  const int m = 24, n = 18, k = 12;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.5f);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = 0.1f * static_cast<float>(i % 13) - 0.6f;
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = 0.2f * static_cast<float>(i % 7) - 0.7f;
  auto c_ref = c;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      float s = 0;
      for (int l = 0; l < k; ++l) s += a[i + l * m] * b[l + j * k];
      c_ref[i + j * m] = 2.0f * s + 0.25f * c_ref[i + j * m];
    }
  ompx::blas::Handle h(dev());
  h.gemm(ompx::blas::Op::kN, ompx::blas::Op::kN, m, n, k, 2.0f, a.data(), m,
         b.data(), k, 0.25f, c.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(c[i], c_ref[i], 1e-4);
}

TEST(VendorFloat, SaxpyApiShapesDiffer) {
  // cuBLAS-shaped: scalar by pointer; rocBLAS-shaped: by value — the
  // wrapper exists precisely to hide this (§3.6).
  std::vector<float> x(10, 1.0f), y(10, 0.0f);
  const float alpha = 4.0f;
  nvblas::Handle nh = nullptr;
  ASSERT_EQ(nvblas::create(&nh), nvblas::kSuccess);
  ASSERT_EQ(nvblas::saxpy(nh, 10, &alpha, x.data(), 1, y.data(), 1),
            nvblas::kSuccess);
  nvblas::destroy(nh);
  rocblas::Handle rh = nullptr;
  ASSERT_EQ(rocblas::create_handle(&rh), rocblas::Status::kSuccess);
  ASSERT_EQ(rocblas::saxpy(rh, 10, alpha, x.data(), 1, y.data(), 1),
            rocblas::Status::kSuccess);
  rocblas::destroy_handle(rh);
  for (float v : y) EXPECT_FLOAT_EQ(v, 8.0f);  // both paths applied once
}

INSTANTIATE_TEST_SUITE_P(BothVendors, WrapperOnDevice, ::testing::Values(0, 1));

TEST(Wrapper, SameCodeRunsOnBothVendors) {
  // The §3.6 pitch: one code path, two vendor backends, same numerics.
  auto x = random_vec(1024, 50);
  auto y1 = random_vec(1024, 51);
  auto y2 = y1;
  {
    ompx::blas::Handle h(simt::sim_a100());
    h.axpy(1024, 2.0, x.data(), y1.data());
  }
  {
    ompx::blas::Handle h(simt::sim_mi250());
    h.axpy(1024, 2.0, x.data(), y2.data());
  }
  EXPECT_EQ(y1, y2);
}

TEST(Wrapper, VendorsLaunchOneKernelBody) {
  // Both vendors run the same kernel body: for the same inputs the two
  // launch records agree on shape and every counter, and their names
  // differ only by the library prefix.
  using ompx::blas::Op;
  const int n = 3000, m = 40, k = 17, cols = 24;
  const auto x = random_vec(n, 60), y0 = random_vec(n, 61);
  const std::vector<float> xf(x.begin(), x.end()), yf0(y0.begin(), y0.end());
  using Call = std::function<void(ompx::blas::Handle&)>;
  const std::vector<std::pair<std::string, Call>> calls = {
      {"daxpy",
       [&](auto& h) { auto y = y0; h.axpy(n, 0.5, x.data(), y.data()); }},
      {"saxpy",
       [&](auto& h) { auto y = yf0; h.axpy(n, 0.5f, xf.data(), y.data()); }},
      {"ddot", [&](auto& h) { h.dot(n, x.data(), y0.data()); }},
      {"sdot", [&](auto& h) { h.dot(n, xf.data(), yf0.data()); }},
      {"dscal", [&](auto& h) { auto z = x; h.scal(n, 3.0, z.data()); }},
      {"dnrm2", [&](auto& h) { h.nrm2(n, x.data()); }},
      {"dgemm",
       [&](auto& h) {
         std::vector<double> c(static_cast<std::size_t>(m) * cols, 1.0);
         h.gemm(Op::kN, Op::kT, m, cols, k, 1.5, x.data(), m, y0.data(), cols,
                0.5, c.data(), m);
       }},
      {"sgemm",
       [&](auto& h) {
         std::vector<float> c(static_cast<std::size_t>(m) * cols, 1.0f);
         h.gemm(Op::kT, Op::kN, m, cols, k, 1.5f, xf.data(), k, yf0.data(), k,
                0.5f, c.data(), m);
       }},
      {"dgemv",
       [&](auto& h) {
         std::vector<double> y(150, 1.0);
         h.gemv(Op::kT, k, 150, 2.0, x.data(), k, y0.data(), 0.5, y.data());
       }},
  };
  ompx::blas::Handle nv(simt::sim_a100()), roc(simt::sim_mi250());
  for (const auto& [routine, call] : calls) {
    SCOPED_TRACE(routine);
    call(nv);
    call(roc);
    const simt::LaunchRecord a = simt::sim_a100().last_launch();
    const simt::LaunchRecord b = simt::sim_mi250().last_launch();
    EXPECT_EQ(a.name, "nvblas_" + routine);
    EXPECT_EQ(b.name, "rocblas_" + routine);
    EXPECT_EQ(a.grid, b.grid);
    EXPECT_EQ(a.block, b.block);
    EXPECT_EQ(counters(a.stats), counters(b.stats));
    // The reductions count exactly one atomic per thread.
    if (routine == "ddot" || routine == "sdot" || routine == "dnrm2") {
      EXPECT_GT(a.stats.blocks, 1u);
      EXPECT_EQ(a.stats.atomics, a.stats.threads);
    }
  }
}

TEST(Wrapper, ReductionsAreBitIdenticalAcrossCallsAndVendors) {
  // Non-integer data over hundreds of blocks: a sum whose order followed
  // how the host interleaved blocks would round differently from call
  // to call.
  const int n = 100000;
  const auto x = random_vec(n, 70), y = random_vec(n, 71);
  const std::vector<float> xf(x.begin(), x.end()), yf(y.begin(), y.end());
  ompx::blas::Handle nv(simt::sim_a100()), roc(simt::sim_mi250());
  const double d = nv.dot(n, x.data(), y.data());
  const float s = nv.dot(n, xf.data(), yf.data());
  const double r = nv.nrm2(n, x.data());
  for (int rep = 0; rep < 20; ++rep) {
    for (ompx::blas::Handle* h : {&nv, &roc}) {
      SCOPED_TRACE(h->is_nvidia() ? "nvblas" : "rocblas");
      ASSERT_EQ(h->dot(n, x.data(), y.data()), d) << "ddot, call " << rep;
      ASSERT_EQ(h->dot(n, xf.data(), yf.data()), s) << "sdot, call " << rep;
      ASSERT_EQ(h->nrm2(n, x.data()), r) << "dnrm2, call " << rep;
    }
  }
}

}  // namespace
