// Integration tests for the block runner and the synchronous launch
// path: indexing, barriers, shared memory, direct mode, error handling.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "simt/atomics.h"
#include "simt/simt.h"

namespace {

using namespace simt;

// Standalone device for tests that need custom configs; the registry
// devices are exercised too.
DeviceConfig tiny_config(std::uint32_t warp = 32) {
  DeviceConfig c = make_sim_a100_config();
  c.name = "tiny";
  c.warp_size = warp;
  return c;
}

TEST(Launch, EveryThreadRunsExactlyOnce) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {4, 2, 2};
  p.block = {8, 4, 2};
  const std::uint64_t total = p.grid.count() * p.block.count();
  std::vector<int> hits(total, 0);
  auto rec = dev.launch_sync(p, [&] {
    auto& t = this_thread();
    const std::uint64_t bid = t.grid_dim.linear(t.block_idx);
    const std::uint64_t tid = t.block_dim.linear(t.thread_idx);
    hits[bid * t.block_dim.count() + tid]++;
  });
  EXPECT_EQ(rec.stats.threads, total);
  EXPECT_EQ(rec.stats.blocks, p.grid.count());
  for (auto h : hits) EXPECT_EQ(h, 1);
}

TEST(Launch, MultiDimIndexingMatchesCudaConvention) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {2, 3, 1};
  p.block = {4, 2, 1};
  // Record global x/y coordinates per thread.
  std::vector<std::pair<unsigned, unsigned>> coords(p.grid.count() *
                                                    p.block.count());
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    const unsigned gx = t.block_idx.x * t.block_dim.x + t.thread_idx.x;
    const unsigned gy = t.block_idx.y * t.block_dim.y + t.thread_idx.y;
    const std::uint64_t flat =
        t.grid_dim.linear(t.block_idx) * t.block_dim.count() +
        t.block_dim.linear(t.thread_idx);
    coords[flat] = {gx, gy};
  });
  // Every (gx, gy) in the 8x6 global domain appears exactly once.
  std::vector<int> seen(8 * 6, 0);
  for (auto [gx, gy] : coords) seen[gy * 8 + gx]++;
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Launch, BarrierMakesWritesVisibleAcrossPhases) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {128};
  std::vector<int> stage(128, 0);
  std::vector<int> out(128, 0);
  bool ok = true;
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    const unsigned i = t.thread_idx.x;
    stage[i] = static_cast<int>(i) + 1;
    t.block->sync_threads(t);
    // Read a neighbour written by another thread before the barrier.
    const unsigned j = (i + 64) % 128;
    out[i] = stage[j];
    if (out[i] != static_cast<int>(j) + 1) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(Launch, BarrierReversedReadWriteOrder) {
  // Threads write AFTER the barrier what others read BEFORE it would be
  // a race; here we verify the opposite phase ordering with two barriers.
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {2};
  p.block = {64};
  std::vector<int> sum_per_block(2, 0);
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    int* shared =
        static_cast<int*>(t.block->shared_alloc(t, 64 * sizeof(int), 16));
    shared[t.thread_idx.x] = 1;
    t.block->sync_threads(t);
    if (t.thread_idx.x == 0) {
      int s = 0;
      for (int i = 0; i < 64; ++i) s += shared[i];
      sum_per_block[t.block_idx.x] = s;
    }
    t.block->sync_threads(t);
  });
  EXPECT_EQ(sum_per_block[0], 64);
  EXPECT_EQ(sum_per_block[1], 64);
}

TEST(Launch, SharedAllocReturnsSamePointerToAllThreads) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {32};
  std::vector<void*> ptrs(32, nullptr);
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    ptrs[t.thread_idx.x] = t.block->shared_alloc(t, 256, 16);
  });
  for (int i = 1; i < 32; ++i) EXPECT_EQ(ptrs[i], ptrs[0]);
}

TEST(Launch, SharedAllocDistinctAcrossBlocks) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {2};
  p.block = {1};
  // Each block writes its id into its own shared var; no cross-talk
  // (verified by the block-local readback below).
  std::vector<int> got(2, -1);
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    int* v = static_cast<int*>(t.block->shared_alloc(t, sizeof(int), 4));
    *v = static_cast<int>(t.block_idx.x) + 7;
    got[t.block_idx.x] = *v;
  });
  EXPECT_EQ(got[0], 7);
  EXPECT_EQ(got[1], 8);
}

TEST(Launch, SharedAllocSizeMismatchThrows) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {2};
  EXPECT_THROW(dev.launch_sync(p,
                               [&] {
                                 auto& t = this_thread();
                                 const std::size_t sz =
                                     t.thread_idx.x == 0 ? 64 : 128;
                                 t.block->shared_alloc(t, sz, 16);
                               }),
               std::logic_error);
}

TEST(Launch, DynamicSharedSegmentSharedByBlock) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {16};
  p.dynamic_smem_bytes = 16 * sizeof(int);
  int total = 0;
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    int* dyn = static_cast<int*>(t.block->dynamic_shared());
    dyn[t.thread_idx.x] = 2;
    t.block->sync_threads(t);
    if (t.thread_idx.x == 0) {
      for (int i = 0; i < 16; ++i) total += dyn[i];
    }
  });
  EXPECT_EQ(total, 32);
}

TEST(Launch, DirectModeRunsAllThreads) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {8};
  p.block = {64};
  p.mode = ExecMode::kDirect;
  std::atomic<int> count{0};
  dev.launch_sync(p, [&] { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(count.load(), 8 * 64);
}

TEST(Launch, DirectModeBarrierThrows) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {2};
  p.mode = ExecMode::kDirect;
  EXPECT_THROW(dev.launch_sync(p,
                               [&] {
                                 auto& t = this_thread();
                                 t.block->sync_threads(t);
                               }),
               std::logic_error);
}

TEST(Launch, EarlyExitThreadsDoNotBlockBarrier) {
  // Kernel-language behaviour: threads that returned are not waited on.
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {64};
  int after_barrier = 0;
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    if (t.thread_idx.x >= 32) return;  // half the block exits early
    t.block->sync_threads(t);
    after_barrier++;
  });
  EXPECT_EQ(after_barrier, 32);
}

TEST(Launch, ValidationRejectsBadLaunches) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {2048};  // > max_threads_per_block (1024)
  EXPECT_THROW(dev.launch_sync(p, [] {}), std::invalid_argument);
  p.block = {0};
  EXPECT_THROW(dev.launch_sync(p, [] {}), std::invalid_argument);
  p.block = {32};
  p.dynamic_smem_bytes = 1 << 20;
  EXPECT_THROW(dev.launch_sync(p, [] {}), std::invalid_argument);
}

TEST(Launch, ThisThreadOutsideKernelThrows) {
  EXPECT_THROW(this_thread(), std::logic_error);
  EXPECT_FALSE(in_kernel());
}

TEST(Launch, BarrierCountsReported) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {4};
  p.block = {32};
  auto rec = dev.launch_sync(p, [&] {
    auto& t = this_thread();
    t.block->sync_threads(t);
    t.block->sync_threads(t);
    t.block->sync_threads(t);
  });
  EXPECT_EQ(rec.stats.block_barriers, 4u * 3u);
}

TEST(Launch, AtomicsAcrossBlocksAndCounted) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {16};
  p.block = {64};
  long total = 0;
  auto rec = dev.launch_sync(p, [&] { atomic_add(&total, 1L); });
  EXPECT_EQ(total, 16 * 64);
  EXPECT_EQ(rec.stats.atomics, 16u * 64u);
}

TEST(Launch, AtomicXorCountsOncePerCallAndFoldsLikeTheHost) {
  std::uint64_t x = 5;
  EXPECT_EQ(atomic_xor(&x, std::uint64_t{3}), 5u);  // returns the old value
  EXPECT_EQ(x, 6u);
  // Several block workers contend on one word. A CAS retry loop would
  // count one atomic per attempt, so its count would follow the
  // interleaving; a single XOR counts exactly one per call.
  Device dev(tiny_config(), EngineOptions{.workers = 4});
  LaunchParams p;
  p.grid = {16};
  p.block = {64};
  const auto contrib = [](std::uint64_t i) -> std::uint64_t {
    return (i + 1) * 0x9E3779B97F4A7C15ull ^ (i << 17);
  };
  std::uint64_t want = 0;
  for (std::uint64_t i = 0; i < 16 * 64; ++i) want ^= contrib(i);
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t hash = 0;
    const LaunchRecord rec = dev.launch_sync(p, [&] {
      const ThreadCtx& t = this_thread();
      atomic_xor(&hash, contrib(t.block_idx.x * 64 + t.flat_tid));
    });
    EXPECT_EQ(hash, want);
    EXPECT_EQ(rec.stats.atomics, 16u * 64u);
  }
}

TEST(Launch, GridStrideLoopCoversDomain) {
  Device dev(tiny_config());
  constexpr int n = 10000;
  std::vector<int> data(n, 0);
  LaunchParams p;
  p.grid = {8};
  p.block = {128};
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    const int stride = static_cast<int>(t.grid_dim.x * t.block_dim.x);
    for (int i = static_cast<int>(t.block_idx.x * t.block_dim.x +
                                  t.thread_idx.x);
         i < n; i += stride)
      data[i] += 1;
  });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), n);
}

TEST(Launch, LaunchLogAccumulatesAndClears) {
  Device dev(tiny_config());
  dev.clear_launch_log();
  LaunchParams p;
  p.grid = {1};
  p.block = {1};
  p.name = "logged";
  dev.launch_sync(p, [] {});
  dev.launch_sync(p, [] {});
  EXPECT_EQ(dev.launch_log().size(), 2u);
  EXPECT_EQ(dev.last_launch().name, "logged");
  EXPECT_GT(dev.modeled_kernel_ms_total(), 0.0);
  dev.clear_launch_log();
  EXPECT_TRUE(dev.launch_log().empty());
  EXPECT_THROW(dev.last_launch(), std::logic_error);
}

class WarpSizeLaunch : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WarpSizeLaunch, LaneAndWarpIdsConsistent) {
  Device dev(tiny_config(GetParam()));
  const std::uint32_t ws = GetParam();
  LaunchParams p;
  p.grid = {1};
  p.block = {3 * ws + ws / 2};  // partial last warp
  bool ok = true;
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    if (t.lane != t.flat_tid % ws) ok = false;
    if (t.warp_id != t.flat_tid / ws) ok = false;
    if (t.warp->warp_id() != t.warp_id) ok = false;
    const std::uint32_t expect_width =
        t.warp_id < 3 ? ws : ws / 2;  // last warp is partial
    if (t.warp->width() != expect_width) ok = false;
  });
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(WarpSizes, WarpSizeLaunch, ::testing::Values(32u, 64u));

}  // namespace
