// Async execution & graph capture: the differential suite pinning the
// redesigned ticket-based launch API to the synchronous semantics it
// replaced.
//
//  - sync-vs-async differential over the six fig8 apps: checksums and
//    modeled kernel time must be bit-identical in both LaunchModes
//    (the async engine may reorder host work, never device results);
//  - ticket wait/query semantics of ompx::LaunchResult;
//  - stream-ordered allocator reuse accounting (C ABI surface);
//  - graph capture/replay equivalence against re-submitting the same
//    ops (buffers and LaunchStats, for 1-, 4- and 16-block direct grids,
//    a cooperative grid and a sanitized replay), node enumeration via
//    the two-call idiom, use-after-destroy;
//  - a completed ticket implies the launch's profiler span is recorded;
//  - stream destroy with in-flight ops, destroy-while-capturing.
//
// CI also runs this binary under TSan (-fsanitize=thread): the worker
// pool, tickets and the capture redirect must be clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "apps/adam/adam.h"
#include "apps/aidw/aidw.h"
#include "apps/harness.h"
#include "apps/rsbench/rsbench.h"
#include "apps/stencil1d/stencil1d.h"
#include "apps/su3/su3.h"
#include "apps/xsbench/xsbench.h"
#include "core/ompx.h"
#include "simt/simt.h"

namespace {

using apps::Version;

/// Saves/restores the process-wide launch mode around each test.
class Async : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = ompx::launch_mode(); }
  void TearDown() override {
    ompx::set_launch_mode(saved_);
    simt::sim_a100().synchronize();
  }

 private:
  ompx::LaunchMode saved_ = ompx::LaunchMode::kAsync;
};

// ---------------------------------------------------------------------------
// Sync-vs-async differential over the six fig8 apps.

struct AppRun {
  std::string app;
  std::uint64_t checksum = 0;
  double kernel_ms = 0.0;
  bool valid = false;
};

std::vector<AppRun> run_all_apps(simt::Device& dev) {
  std::vector<AppRun> out;
  auto push = [&](const apps::RunResult& r) {
    out.push_back({r.app, r.checksum, r.kernel_ms, r.valid});
  };
  {
    apps::xsbench::Options o;
    o.lookups = 2000;
    o.n_gridpoints = 128;
    push(apps::xsbench::run(Version::kOmpx, dev, o));
  }
  {
    apps::rsbench::Options o;
    o.lookups = 1000;
    o.n_poles = 64;
    o.n_windows = 8;
    push(apps::rsbench::run(Version::kOmpx, dev, o));
  }
  {
    apps::su3::Options o;
    o.lattice_sites = 1024;
    o.iterations = 2;
    push(apps::su3::run(Version::kOmpx, dev, o));
  }
  {
    apps::adam::Options o;
    o.n = 2048;
    o.steps = 8;
    push(apps::adam::run(Version::kOmpx, dev, o));
  }
  {
    apps::aidw::Options o;
    o.n_data = 256;
    o.n_query = 256;
    push(apps::aidw::run(Version::kOmpx, dev, o));
  }
  {
    apps::stencil1d::Options o;
    o.n = 1 << 14;
    o.iterations = 2;
    push(apps::stencil1d::run(Version::kOmpx, dev, o));
  }
  return out;
}

TEST_F(Async, SyncVsAsyncDifferentialOverSixApps) {
  simt::Device& dev = simt::sim_a100();

  ompx::set_launch_mode(ompx::LaunchMode::kSync);
  const std::vector<AppRun> sync_rows = run_all_apps(dev);

  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  const std::vector<AppRun> async_rows = run_all_apps(dev);

  ASSERT_EQ(sync_rows.size(), async_rows.size());
  for (std::size_t i = 0; i < sync_rows.size(); ++i) {
    SCOPED_TRACE(sync_rows[i].app);
    EXPECT_TRUE(sync_rows[i].valid);
    EXPECT_TRUE(async_rows[i].valid);
    // Device-observable state is mode-independent: same checksum, same
    // modeled kernel time, bit for bit.
    EXPECT_EQ(sync_rows[i].checksum, async_rows[i].checksum);
    EXPECT_EQ(sync_rows[i].kernel_ms, async_rows[i].kernel_ms);
  }
}

// ---------------------------------------------------------------------------
// Ticket semantics.

TEST_F(Async, TicketWaitDeliversTheRecord) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  auto* out = ompx::malloc_n<int>(256);
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {256};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = "ticket_wait_kernel";
  ompx::LaunchResult r =
      ompx::launch(spec, [=] { out[ompx::global_thread_id()] = 3; });
  r.wait();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.record.name, "ticket_wait_kernel");
  EXPECT_EQ(r.record.stats.threads, 256u);
  EXPECT_GT(r.record.time.total_ms, 0.0);
  for (int i = 0; i < 256; ++i) ASSERT_EQ(out[i], 3);
  r.wait();  // idempotent
  EXPECT_TRUE(r.completed);
  ompx::free_on(ompx::default_device(), out);
}

TEST_F(Async, TicketQueryTurnsTrueWithoutBlocking) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {32};
  spec.name = "ticket_query_kernel";
  ompx::LaunchResult r = ompx::launch(spec, [] {});
  while (!r.query()) {
  }
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.record.name, "ticket_query_kernel");
}

TEST_F(Async, ModeledAndWallTimesWaitAutomatically) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  ompx::LaunchSpec spec;
  spec.num_teams = {2};
  spec.thread_limit = {64};
  spec.name = "ticket_times";
  ompx::LaunchResult r = ompx::launch(spec, [] {});
  EXPECT_GT(r.modeled_ms(), 0.0);  // implicit wait
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.wall_ms(), 0.0);
}

TEST_F(Async, SyncModeCompletesEagerly) {
  ompx::set_launch_mode(ompx::LaunchMode::kSync);
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {32};
  spec.name = "sync_mode_kernel";
  const ompx::LaunchResult r = ompx::launch(spec, [] {});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.record.name, "sync_mode_kernel");
}

TEST_F(Async, LaunchRecordSynchronizesInFlightLaunches) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {32};
  spec.name = "record_sync_kernel";
  ompx::launch(spec, [] {});
  // No explicit wait: launch_record must synchronize the device first.
  EXPECT_EQ(ompx::launch_record().name, "record_sync_kernel");
}

// ---------------------------------------------------------------------------
// Stream-ordered allocator reuse accounting (through the C ABI).

TEST_F(Async, AsyncAllocReusesFromTheStreamPool) {
  ompx_mempool_stats_t before{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &before), OMPX_SUCCESS);

  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  constexpr std::size_t kBytes = 4096;
  void* a = ompx_malloc_async(kBytes, s);
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(ompx_free_async(a, s), OMPX_SUCCESS);
  void* b = ompx_malloc_async(kBytes, s);
  EXPECT_EQ(b, a) << "same-size malloc_async must recycle the pooled block";
  // A different size cannot be served from the pool.
  void* c = ompx_malloc_async(kBytes * 2, s);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(c, a);
  ASSERT_EQ(ompx_free_async(b, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_free_async(c, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);

  ompx_mempool_stats_t after{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &after), OMPX_SUCCESS);
  EXPECT_GE(after.reuse_hits, before.reuse_hits + 1);
  EXPECT_GE(after.misses, before.misses + 2);
  EXPECT_GE(after.frees, before.frees + 3);
  EXPECT_GE(after.bytes_reused, before.bytes_reused + kBytes);
  EXPECT_GE(after.pooled_blocks, 2ull);  // both blocks parked for reuse

  // destroy_stream trims the pool: the parked blocks return to the heap.
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  ompx_mempool_stats_t trimmed{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &trimmed), OMPX_SUCCESS);
  EXPECT_LE(trimmed.pooled_bytes, after.pooled_bytes);

  EXPECT_EQ(ompx_mempool_get_stats(0, nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_mempool_get_stats(-7, &after), OMPX_ERROR_INVALID_DEVICE);
}

TEST_F(Async, StreamDestroyCountsReclaimedBlocks) {
  // Blocks parked for reuse are returned to the heap when the stream
  // dies, and the trim is visible in the stats (regression: pooled
  // blocks of an abandoned stream used to vanish from the accounting).
  ompx_mempool_stats_t before{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &before), OMPX_SUCCESS);
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  constexpr std::size_t kBytes = 8192;
  void* a = ompx_malloc_async(kBytes, s);
  void* b = ompx_malloc_async(kBytes, s);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(ompx_free_async(a, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_free_async(b, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  ompx_mempool_stats_t after{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &after), OMPX_SUCCESS);
  EXPECT_GE(after.reclaimed_blocks, before.reclaimed_blocks + 2);
  EXPECT_GE(after.reclaimed_bytes, before.reclaimed_bytes + 2 * kBytes);
}

TEST_F(Async, TimedOutStreamLeaksNothingAndReleasesItsBlocks) {
  // The --fault=stall + watchdog seam: once the watchdog kills a
  // stream, malloc_async on it must fail cleanly WITHOUT leaking the
  // backing allocation (regression: the allocation was made before the
  // enqueue was refused), free_async must leave the block live, and
  // destroying the dead stream hands surviving blocks back to the
  // plain allocator so they are never stranded.
  simt::Device& dev = simt::sim_a100();
  ASSERT_EQ(ompx_set_watchdog_ms(100.0), OMPX_SUCCESS);
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  void* early = ompx_malloc_async(4096, s);
  ASSERT_NE(early, nullptr);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  {
    // A 1.5 s stall against a 100 ms budget wedges the stream for good.
    ompx::FaultScope fault("stall:after=0,ms=1500");
    ASSERT_EQ(ompx_memset_async(early, 0, 4096, s), OMPX_SUCCESS);
    EXPECT_EQ(ompx_stream_synchronize(s), OMPX_ERROR_TIMEOUT);
  }
  const std::uint64_t live = dev.memory().bytes_in_use();
  EXPECT_EQ(ompx_malloc_async(256, s), nullptr);
  EXPECT_EQ(ompx_get_last_result(), OMPX_ERROR_TIMEOUT);
  EXPECT_EQ(dev.memory().bytes_in_use(), live)
      << "refused malloc_async leaked its backing allocation";
  // free_async on the dead stream cannot enqueue: the block stays live.
  EXPECT_EQ(ompx_free_async(early, s), OMPX_ERROR_TIMEOUT);
  EXPECT_EQ(dev.memory().bytes_in_use(), live);
  // Stream destroy releases the async claim: the survivor is now
  // plain-freeable (documented escape hatch), and nothing remains.
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_free(early), OMPX_SUCCESS);
  EXPECT_EQ(dev.memory().bytes_in_use(), live - 4096);
  ASSERT_EQ(ompx_set_watchdog_ms(0.0), OMPX_SUCCESS);
  (void)ompx_get_last_result();
}

// ---------------------------------------------------------------------------
// Graph capture / replay.

/// Every LaunchStats field except sched_steals, which counts how host
/// workers happened to share out the blocks.
auto stats_key(const simt::LaunchStats& x) {
  return std::tie(x.blocks, x.threads, x.block_barriers, x.warp_collectives,
                  x.warp_syncs, x.atomics, x.runtime_init, x.generic_mode,
                  x.parallel_handshakes, x.workshare_dispatches,
                  x.globalized_bytes, x.spill_in_shared, x.fibers_created,
                  x.fiber_reuses, x.sched_lane_loops, x.sched_deflations);
}

TEST_F(Async, GraphReplayMatchesRecapturedExecution) {
  // One stream worker, so every op and every inline (1-block) grid runs
  // on one thread whose fiber pool the warm-up launch fills: fiber
  // counters then agree between runs. Four block workers fan the
  // 16-block grid out, as step_loop's graph rung does.
  simt::EngineOptions opts;
  opts.workers = 4;
  opts.stream_workers = 1;
  simt::Device dev(simt::make_sim_a100_config(), opts);
  simt::Stream* s = dev.create_stream();
  constexpr std::size_t kN = 16 * 256;
  auto* buf = static_cast<int*>(dev.memory().allocate(kN * sizeof(int)));

  auto direct_step = [buf] {
    auto& t = simt::this_thread();
    const auto i = t.block_idx.x * 256 + t.flat_tid;
    buf[i] += static_cast<int>(i % 7) + 1;
  };
  // Reverses each block's slice through shared memory across a barrier.
  auto cooperative_step = [buf] {
    auto& t = simt::this_thread();
    auto* tile = static_cast<int*>(
        t.block->shared_alloc(t, 256 * sizeof(int), alignof(int)));
    const auto base = t.block_idx.x * 256;
    tile[t.flat_tid] = buf[base + t.flat_tid];
    t.block->sync_threads(t);
    buf[base + t.flat_tid] = tile[255 - t.flat_tid] + 1;
  };
  // Racecheck-instrumented shared traffic: a replay must not inherit
  // shadow state from the previous one.
  auto san_step = [buf] {
    auto& t = simt::this_thread();
    auto tile = ompx::san::shared_array<int>(256);
    const auto i = t.block_idx.x * 256 + t.flat_tid;
    tile[t.flat_tid] = buf[i];
    buf[i] = tile[t.flat_tid] * 3 + 1;
  };

  struct Case {
    const char* label;
    std::uint32_t blocks;
    simt::ExecMode mode;
    simt::KernelFn step;
    bool san;
  };
  const Case cases[] = {
      {"1-block direct", 1, simt::ExecMode::kDirect, direct_step, false},
      {"4-block direct", 4, simt::ExecMode::kDirect, direct_step, false},
      {"16-block direct", 16, simt::ExecMode::kDirect, direct_step, false},
      {"cooperative", 1, simt::ExecMode::kCooperative, cooperative_step,
       false},
      {"direct under ompx::San", 2, simt::ExecMode::kDirect, san_step, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const std::uint32_t san_before = ompx::San::enabled();
    if (c.san) {
      ompx::San::enable(simt::kSanRace | simt::kSanMem);
      ompx::San::reset();
    }
    simt::LaunchParams p;
    p.grid = {c.blocks};
    p.block = {256};
    p.mode = c.mode;
    p.name = "graph_step";
    const std::size_t bytes = c.blocks * 256 * sizeof(int);

    // Reference: three plain (uncaptured) submissions after a warm-up.
    simt::LaunchRecord live;
    const auto keep_live = [&live](const simt::LaunchRecord& r) { live = r; };
    s->launch(p, c.step);
    s->memset_async(buf, 0, bytes);
    for (int rep = 0; rep < 3; ++rep) s->launch(p, c.step, keep_live);
    s->synchronize();
    std::vector<int> want(c.blocks * 256);
    std::memcpy(want.data(), buf, bytes);

    // Capture one step, replay it three times over a re-zeroed buffer.
    std::vector<simt::LaunchRecord> replayed;
    s->memset_async(buf, 0, bytes);
    s->synchronize();
    ompx::stream_begin_capture(*s);
    s->launch(p, c.step, [&replayed](const simt::LaunchRecord& r) {
      replayed.push_back(r);
    });
    ompx::Graph g = ompx::end_capture(*s);
    ASSERT_TRUE(g.valid());
    EXPECT_EQ(g.node_count(), 1u);
    g.instantiate();
    for (int rep = 0; rep < 3; ++rep) g.launch(*s);
    s->synchronize();
    EXPECT_EQ(g.replay_count(), 3u);
    EXPECT_EQ(std::memcmp(want.data(), buf, bytes), 0)
        << "three replays must equal three re-submitted launches";
    ASSERT_EQ(replayed.size(), 3u);
    for (const simt::LaunchRecord& r : replayed) {
      EXPECT_EQ(stats_key(r.stats), stats_key(live.stats));
      EXPECT_EQ(r.time.total_ms, live.time.total_ms);
      EXPECT_EQ(r.exec_mode, live.exec_mode);
    }
    if (c.san) {
      EXPECT_EQ(ompx::San::error_count(), 0u) << ompx::San::report();
      if (san_before == 0) ompx::San::disable();
      else ompx::San::enable(san_before);
    }
  }

  dev.memory().deallocate(buf);
  dev.destroy_stream(s);
}

// A completed ticket implies a recorded span: the executor records a
// kernel's profiler span before the completion callback releases
// LaunchResult::wait().
TEST_F(Async, CompletedTicketImpliesRecordedSpan) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  auto& prof = simt::Profiler::instance();
  prof.start();
  prof.reset();
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {32};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = "ticket_span_kernel";
  for (std::uint64_t i = 0; i < 256; ++i) {
    ompx::LaunchResult r = ompx::launch(spec, [] {});
    r.wait();
    ASSERT_EQ(prof.counters().launches, i + 1) << "after ticket " << i;
  }
  prof.stop();
  prof.reset();
}

TEST_F(Async, GraphNodeEnumerationTwoCallIdiom) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  auto* flag = ompx::malloc_n<int>(64);

  ASSERT_EQ(ompx_stream_begin_capture(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_is_capturing(s), 1);
  ASSERT_EQ(ompx_memset_async(flag, 0, 64 * sizeof(int), s), OMPX_SUCCESS);
  const unsigned grid[3] = {1, 1, 1};
  const unsigned block[3] = {64, 1, 1};
  ASSERT_EQ(ompx_launch_kernel(
                [](void* arg) {
                  static_cast<int*>(arg)[ompx::global_thread_id()] = 1;
                },
                flag, grid, block, s),
            OMPX_SUCCESS);
  ompx_graph_t g = nullptr;
  ASSERT_EQ(ompx_stream_end_capture(s, &g), OMPX_SUCCESS);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(ompx_stream_is_capturing(s), 0);

  // Two-call enumeration: size first, then fill (partial fill allowed).
  std::size_t count = 0;
  ASSERT_EQ(ompx_graph_node_count(g, &count), OMPX_SUCCESS);
  ASSERT_EQ(count, 2u);
  std::vector<ompx_graph_node_info_t> nodes(count);
  std::size_t written = 0;
  ASSERT_EQ(ompx_graph_get_nodes(g, nodes.data(), 1, &written), OMPX_SUCCESS);
  EXPECT_EQ(written, 1u);  // capacity-clamped
  ASSERT_EQ(ompx_graph_get_nodes(g, nodes.data(), count, &written),
            OMPX_SUCCESS);
  ASSERT_EQ(written, 2u);
  EXPECT_STREQ(nodes[0].kind, "memset");
  EXPECT_STREQ(nodes[1].kind, "kernel");

  ASSERT_EQ(ompx_graph_instantiate(g), OMPX_SUCCESS);
  ASSERT_EQ(ompx_graph_launch(g, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(flag[i], 1);

  ASSERT_EQ(ompx_graph_destroy(g), OMPX_SUCCESS);
  // Use-after-destroy is detected, not UB.
  EXPECT_EQ(ompx_graph_launch(g, s), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_instantiate(g), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_node_count(g, &count), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_destroy(g), OMPX_ERROR_INVALID_VALUE);

  ompx::free_on(ompx::default_device(), flag);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
}

TEST_F(Async, GraphNullArgumentHandling) {
  std::size_t count = 0;
  EXPECT_EQ(ompx_graph_node_count(nullptr, &count), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_instantiate(nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_launch(nullptr, nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_destroy(nullptr), OMPX_SUCCESS);  // free(NULL) rule

  ompx_stream_t s = ompx_stream_create();
  ASSERT_EQ(ompx_stream_begin_capture(s), OMPX_SUCCESS);
  // Null out-param still ends the capture (the stream must stay usable)
  // but reports the bad argument.
  EXPECT_EQ(ompx_stream_end_capture(s, nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_stream_is_capturing(s), 0);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
}

// ---------------------------------------------------------------------------
// Stream destroy semantics.

TEST_F(Async, StreamDestroyDrainsInFlightOps) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  auto* st = static_cast<simt::Stream*>(s);
  std::atomic<int> ran{0};
  simt::LaunchParams p;
  p.grid = {2};
  p.block = {64};
  p.mode = simt::ExecMode::kDirect;
  p.name = "destroy_drain";
  for (int i = 0; i < 16; ++i) {
    st->launch(p, [&ran] {
      if (simt::this_thread().flat_tid == 0 &&
          simt::this_thread().block->block_index().x == 0)
        ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // No synchronize: destroy itself must drain the worker pool.
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  EXPECT_EQ(ran.load(), 16);
}

TEST_F(Async, DestroyWhileCapturingFailsCleanly) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_EQ(ompx_stream_begin_capture(s), OMPX_SUCCESS);
  // Clean result code, no UB — and the capture is still open.
  EXPECT_NE(ompx_stream_destroy(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_is_capturing(s), 1);
  ompx_graph_t g = nullptr;
  ASSERT_EQ(ompx_stream_end_capture(s, &g), OMPX_SUCCESS);
  ASSERT_EQ(ompx_graph_destroy(g), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
}

TEST_F(Async, SynchronizeWhileCapturingIsAnError) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_EQ(ompx_stream_begin_capture(s), OMPX_SUCCESS);
  EXPECT_NE(ompx_stream_synchronize(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_end_capture(s, nullptr), OMPX_ERROR_INVALID_VALUE);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
}

TEST_F(Async, CaptureRejectsFreeOfForeignPointer) {
  simt::Device& dev = ompx::default_device();
  simt::Stream* s = dev.create_stream();
  auto* plain = ompx::malloc_n<int>(16);  // not graph-owned
  s->begin_capture();
  EXPECT_THROW(s->free_async(plain), std::invalid_argument);
  auto g = s->end_capture();
  simt::destroy_graph(g.release());
  ompx::free_on(dev, plain);
  dev.destroy_stream(s);
}

}  // namespace
