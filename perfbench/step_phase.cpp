// step_loop: an explicit 1-D heat solver on a 4096-cell periodic mesh,
// 16 blocks x 256 threads, stepped through each entry point of the
// launch ladder. Kernel work is a few flops per thread, so host-side
// launch cost dominates; every rung's field is compared bit for bit
// with a host reference after every round.
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>

#include "blas/ompx_blas.h"
#include "core/ompx.h"
#include "kl/kl.h"
#include "phases.h"
#include "simt/simt.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kBlocks = 16;
constexpr std::uint32_t kThreads = 256;
constexpr std::uint32_t kCells = kBlocks * kThreads;
constexpr std::size_t kBytes = kCells * sizeof(double);
/// Steps between waits. Even, so each chunk leaves the field in `a`.
constexpr int kChunk = 32;
constexpr double kDiffusion = 0.25;

/// One cell of one explicit Euler step; shared by every kernel form
/// and the host reference so results are bit-identical.
inline void heat_cell(const double* in, double* out, std::uint32_t i) {
  const std::uint32_t l = (i + kCells - 1) % kCells;
  const std::uint32_t r = (i + 1) % kCells;
  out[i] = in[i] + kDiffusion * (in[l] - 2.0 * in[i] + in[r]);
}

simt::KernelFn grid_kernel(const double* in, double* out) {
  return [in, out] {
    const simt::ThreadCtx& t = simt::this_thread();
    heat_cell(in, out, t.block_idx.x * t.block_dim.x + t.thread_idx.x);
  };
}

/// The same step on one block: each lane strides over 16 cells.
simt::KernelFn block_kernel(const double* in, double* out) {
  return [in, out] {
    for (std::uint32_t i = simt::this_thread().thread_idx.x; i < kCells;
         i += kThreads)
      heat_cell(in, out, i);
  };
}

struct HeatArgs {
  const double* in;
  double* out;
};

/// The C-ABI kernel form: fn(arg) with the ompx_* index getters.
void heat_c(void* arg) {
  const auto* a = static_cast<const HeatArgs*>(arg);
  heat_cell(a->in, a->out,
            static_cast<std::uint32_t>(ompx_block_id_x() * ompx_block_dim_x() +
                                       ompx_thread_id_x()));
}

void check_c(ompx_result_t r, const char* what) {
  if (r != OMPX_SUCCESS)
    throw std::runtime_error(std::string(what) + ": " +
                             ompx_last_result_detail());
}

/// The fig8 apps switch the calling thread's ompx and kl devices; the
/// ladder always runs on sim-a100 (registry index 0).
void use_sim_a100() {
  ompx::set_default_device(simt::sim_a100());
  kl::check(kl::klSetDevice(0), "klSetDevice");
}

simt::LaunchParams heat_params(std::uint32_t blocks, const char* name) {
  simt::LaunchParams p;
  p.grid = {blocks};
  p.block = {kThreads};
  p.name = name;
  p.cost.flops_per_thread = 5.0 * kCells / (blocks * kThreads);
  p.cost.global_bytes_per_thread = 16.0 * kCells / (blocks * kThreads);
  return p;
}

/// One entry point of the ladder. `issue` runs or enqueues kChunk steps;
/// `wait` blocks until they are done (no-op for synchronous rungs);
/// `check` compares the result with the host's.
struct Rung {
  explicit Rung(const char* n) : name(n) {}
  const char* name;
  double* a = nullptr;  ///< heat rungs: the field (after each whole chunk)
  double* b = nullptr;
  std::function<void()> issue;
  std::function<void()> wait = [] {};
  std::function<bool()> check;
  std::function<void()> release = [] {};
  std::vector<double> us_traced, us_plain;  ///< per-step time per chunk
  std::string error;  ///< this round's failure, if any
};

/// y += x; d = x.y through one blas handle, checked exactly: the data
/// are small integers, so every dot is exact whatever the sum order.
struct BlasVectors {
  std::unique_ptr<ompx::blas::Handle> handle;
  double* x = nullptr;
  double* y = nullptr;
  std::vector<double> x0, y0;
  double dot0 = 0, dot_step = 0;  ///< dot after s steps = dot0 + s*dot_step
  std::uint64_t steps = 0, bad_dots = 0;
};

void run_blas_chunk(BlasVectors& v) {
  const int n = static_cast<int>(kCells);
  for (int k = 0; k < kChunk; ++k) {
    v.handle->axpy(n, 1.0, v.x, v.y);
    const double d = v.handle->dot(n, v.x, v.y);
    v.steps++;
    if (d != v.dot0 + static_cast<double>(v.steps) * v.dot_step) v.bad_dots++;
  }
}

bool blas_state_ok(const BlasVectors& v) {
  for (std::uint32_t i = 0; i < kCells; ++i)
    if (v.x[i] != v.x0[i] ||
        v.y[i] != v.y0[i] + static_cast<double>(v.steps) * v.x0[i])
      return false;
  return v.bad_dots == 0;
}

}  // namespace

struct StepBench::State {
  serve::Server* server = nullptr;
  std::vector<double> init;  ///< seeded initial field
  std::vector<double> ref;   ///< host reference, advanced per round
  std::vector<double> tmp;
  std::uint64_t ref_steps = 0;
  std::unique_ptr<simt::Device> one_worker;
  simt::Stream* stream = nullptr;
  simt::Stream* graph_stream = nullptr;
  ompx_stream_t c_stream = nullptr;
  kl::klStream_t kl_stream = nullptr;
  serve::ClientContext* tenant = nullptr;
  ompx::Graph graph;
  HeatArgs c_ab{}, c_ba{};
  std::vector<Rung> rungs;
  std::vector<std::unique_ptr<BlasVectors>> blas;
  std::uint64_t chunk_id = 0;

  Rung& rung(const char* name) {
    for (Rung& r : rungs)
      if (std::strcmp(r.name, name) == 0) return r;
    throw std::logic_error(name);
  }
  void advance_reference(int steps) {
    for (int s = 0; s < steps; ++s) {
      for (std::uint32_t i = 0; i < kCells; ++i)
        heat_cell(ref.data(), tmp.data(), i);
      ref.swap(tmp);
    }
    ref_steps += static_cast<std::uint64_t>(steps);
  }
};

StepBench::StepBench(std::uint64_t seed, serve::Server& server)
    : s_(std::make_unique<State>()) {
  State& s = *s_;
  s.server = &server;
  Rng rng{seed ^ 0x57e9100ull};
  s.init.resize(kCells);
  for (double& v : s.init) v = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  s.ref = s.init;
  s.tmp.resize(kCells);

  use_sim_a100();
  // Sync-free kernels: every rung takes the convergent lane loop, as
  // the static classifier would decide for them.
  for (const char* k : {"heat_step", "heat_step_1blk", "ompx_launch_kernel"})
    ompx::launch_hints(k, /*convergent=*/true);

  simt::Device& dev = simt::sim_a100();
  simt::DeviceConfig one_cfg = simt::make_sim_a100_config();
  one_cfg.name += "-1worker";
  simt::EngineOptions one_opts;
  one_opts.workers = 1;
  s.one_worker = std::make_unique<simt::Device>(one_cfg, one_opts);

  const simt::LaunchParams grid_p = heat_params(kBlocks, "heat_step");
  const simt::LaunchParams block_p = heat_params(1, "heat_step_1blk");

  auto sync_rung = [&](const char* name, simt::Device& d,
                       const simt::LaunchParams& p,
                       simt::KernelFn (*make)(const double*, double*)) {
    Rung r{name};
    r.a = static_cast<double*>(d.memory().allocate(kBytes));
    r.b = static_cast<double*>(d.memory().allocate(kBytes));
    const simt::KernelFn ab = make(r.a, r.b), ba = make(r.b, r.a);
    simt::Device* dp = &d;
    r.issue = [dp, p, ab, ba] {
      for (int k = 0; k < kChunk; ++k) (void)dp->launch_sync(p, k % 2 ? ba : ab);
    };
    r.release = [dp, a = r.a, b = r.b] {
      dp->memory().deallocate(a);
      dp->memory().deallocate(b);
    };
    return r;
  };
  s.rungs.push_back(sync_rung("launch_sync", dev, grid_p, grid_kernel));
  s.rungs.push_back(sync_rung("launch_sync_1w", *s.one_worker, grid_p, grid_kernel));
  s.rungs.push_back(sync_rung("launch_sync_1blk", dev, block_p, block_kernel));

  {  // simt::Stream::launch on a created stream.
    Rung r{"stream"};
    simt::Stream* st = s.stream = dev.create_stream();
    r.a = static_cast<double*>(st->malloc_async(kBytes));
    r.b = static_cast<double*>(st->malloc_async(kBytes));
    const simt::KernelFn ab = grid_kernel(r.a, r.b), ba = grid_kernel(r.b, r.a);
    r.issue = [st, grid_p, ab, ba] {
      for (int k = 0; k < kChunk; ++k) st->launch(grid_p, k % 2 ? ba : ab);
    };
    r.wait = [st] { st->synchronize(); };
    r.release = [st, a = r.a, b = r.b] {
      st->free_async(a);
      st->free_async(b);
    };
    s.rungs.push_back(std::move(r));
  }
  {  // ompx::launch, async tickets, wait on the last one.
    Rung r{"ompx"};
    r.a = static_cast<double*>(ompx_malloc(kBytes));
    r.b = static_cast<double*>(ompx_malloc(kBytes));
    ompx::LaunchSpec spec;
    spec.num_teams = {kBlocks};
    spec.thread_limit = {kThreads};
    spec.name = "heat_step";
    spec.cost = grid_p.cost;
    const simt::KernelFn ab = grid_kernel(r.a, r.b), ba = grid_kernel(r.b, r.a);
    auto last = std::make_shared<ompx::LaunchResult>();
    r.issue = [spec, ab, ba, last] {
      for (int k = 0; k < kChunk; ++k) *last = ompx::launch(spec, k % 2 ? ba : ab);
    };
    r.wait = [last] { last->wait(); };
    r.release = [a = r.a, b = r.b] {
      check_c(ompx_free(a), "ompx_free");
      check_c(ompx_free(b), "ompx_free");
    };
    s.rungs.push_back(std::move(r));
  }
  {  // The C ABI: ompx_launch_kernel on an ompx_stream_t.
    Rung r{"capi"};
    s.c_stream = ompx_stream_create();
    if (s.c_stream == nullptr) check_c(OMPX_ERROR_INVALID_VALUE, "ompx_stream_create");
    r.a = static_cast<double*>(ompx_malloc_async(kBytes, s.c_stream));
    r.b = static_cast<double*>(ompx_malloc_async(kBytes, s.c_stream));
    if (r.a == nullptr || r.b == nullptr) check_c(ompx_get_last_result(), "ompx_malloc_async");
    s.c_ab = {r.a, r.b};
    s.c_ba = {r.b, r.a};
    ompx_stream_t cs = s.c_stream;
    HeatArgs* ab = &s.c_ab;
    HeatArgs* ba = &s.c_ba;
    r.issue = [cs, ab, ba] {
      const unsigned grid[3] = {kBlocks, 1, 1}, block[3] = {kThreads, 1, 1};
      for (int k = 0; k < kChunk; ++k)
        check_c(ompx_launch_kernel(heat_c, k % 2 ? ba : ab, grid, block, cs),
                "ompx_launch_kernel");
    };
    r.wait = [cs] { check_c(ompx_stream_synchronize(cs), "ompx_stream_synchronize"); };
    r.release = [cs, a = r.a, b = r.b] {
      check_c(ompx_free_async(a, cs), "ompx_free_async");
      check_c(ompx_free_async(b, cs), "ompx_free_async");
    };
    s.rungs.push_back(std::move(r));
  }
  {  // The kernel-language layer: kl::launch on a kl stream.
    Rung r{"kl"};
    kl::check(kl::klStreamCreate(&s.kl_stream), "klStreamCreate");
    kl::check(kl::klMalloc(&r.a, kBytes), "klMalloc");
    kl::check(kl::klMalloc(&r.b, kBytes), "klMalloc");
    kl::KernelAttrs attrs;
    attrs.name = "heat_step";
    attrs.cost = grid_p.cost;
    kl::klStream_t ks = s.kl_stream;
    const simt::KernelFn ab = grid_kernel(r.a, r.b), ba = grid_kernel(r.b, r.a);
    r.issue = [ks, attrs, ab, ba] {
      for (int k = 0; k < kChunk; ++k)
        kl::check(kl::launch({kBlocks}, {kThreads}, 0, ks, attrs, k % 2 ? ba : ab),
                  "kl::launch");
    };
    r.wait = [ks] { kl::check(kl::klStreamSynchronize(ks), "klStreamSynchronize"); };
    r.release = [a = r.a, b = r.b] {
      kl::check(kl::klFree(a), "klFree");
      kl::check(kl::klFree(b), "klFree");
    };
    s.rungs.push_back(std::move(r));
  }
  {  // One kChunk-step chunk captured once, instantiated, replayed.
    Rung r{"graph"};
    simt::Stream* gs = s.graph_stream = dev.create_stream();
    r.a = static_cast<double*>(gs->malloc_async(kBytes));
    r.b = static_cast<double*>(gs->malloc_async(kBytes));
    gs->synchronize();
    const simt::KernelFn ab = grid_kernel(r.a, r.b), ba = grid_kernel(r.b, r.a);
    ompx::stream_begin_capture(*gs);
    for (int k = 0; k < kChunk; ++k) gs->launch(grid_p, k % 2 ? ba : ab);
    s.graph = ompx::end_capture(*gs);
    s.graph.instantiate();
    ompx::Graph* g = &s.graph;
    r.issue = [g, gs] { g->launch(*gs); };
    r.wait = [gs] { gs->synchronize(); };
    r.release = [gs, a = r.a, b = r.b] {
      gs->free_async(a);
      gs->free_async(b);
    };
    s.rungs.push_back(std::move(r));
  }
  {  // A lone serve tenant: submit kChunk requests, then synchronize.
    Rung r{"serve"};
    serve::ClientContext* c = s.tenant = server.create_client(&dev);
    r.a = static_cast<double*>(c->malloc(kBytes));
    r.b = static_cast<double*>(c->malloc(kBytes));
    const simt::KernelFn ab = grid_kernel(r.a, r.b), ba = grid_kernel(r.b, r.a);
    r.issue = [c, grid_p, ab, ba] {
      for (int k = 0; k < kChunk; ++k) c->submit(grid_p, k % 2 ? ba : ab);
    };
    r.wait = [c] { c->synchronize(); };
    r.release = [c, a = r.a, b = r.b] {
      c->free(a);
      c->free(b);
    };
    s.rungs.push_back(std::move(r));
  }
  for (Rung& r : s.rungs) {
    std::memcpy(r.a, s.init.data(), kBytes);
    r.check = [&s, a = r.a] { return std::memcmp(a, s.ref.data(), kBytes) == 0; };
  }

  // One axpy + dot per step through each vendor's handle.
  for (simt::Device* d : {&simt::sim_a100(), &simt::sim_mi250()}) {
    auto v = std::make_unique<BlasVectors>();
    v->handle = std::make_unique<ompx::blas::Handle>(*d);
    v->x = static_cast<double*>(d->memory().allocate(kBytes));
    v->y = static_cast<double*>(d->memory().allocate(kBytes));
    for (std::uint32_t i = 0; i < kCells; ++i) {
      v->x0.push_back(static_cast<double>(rng.next() % 8));
      v->y0.push_back(static_cast<double>(rng.next() % 8));
      v->dot0 += v->x0[i] * v->y0[i];
      v->dot_step += v->x0[i] * v->x0[i];
    }
    std::memcpy(v->x, v->x0.data(), kBytes);
    std::memcpy(v->y, v->y0.data(), kBytes);
    BlasVectors* vp = v.get();
    Rung r{d == &simt::sim_a100() ? "blas_nv" : "blas_roc"};
    r.issue = [vp] { run_blas_chunk(*vp); };
    r.check = [vp] { return blas_state_ok(*vp); };
    r.release = [d, vp] {
      d->memory().deallocate(vp->x);
      d->memory().deallocate(vp->y);
    };
    s.blas.push_back(std::move(v));
    s.rungs.push_back(std::move(r));
  }
}

StepBench::~StepBench() {
  State& s = *s_;
  try {
    use_sim_a100();
    for (Rung& r : s.rungs) r.wait();
    s.graph = ompx::Graph();
    for (Rung& r : s.rungs) r.release();
    simt::Device& dev = simt::sim_a100();
    dev.destroy_stream(s.stream);
    dev.destroy_stream(s.graph_stream);
    ompx_stream_destroy(s.c_stream);
    kl::klStreamDestroy(s.kl_stream);
    s.server->destroy_client(s.tenant);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: step teardown: %s\n", e.what());
  }
}

namespace {

/// Runs one chunk of every rung, then checks every rung's result.
/// Returns the summed chunk wall time in ms.
double round(StepBench::State& s, Tally& tally, Tracer& tracer, bool timed_trace) {
  use_sim_a100();
  double wall_ms = 0;
  for (Rung& r : s.rungs) {
    const std::uint64_t id = s.chunk_id++;
    const std::int64_t chunk = tracer.begin(r.name, id);
    const auto t0 = Clock::now();
    std::string err;
    try {
      const std::int64_t l = tracer.begin("launch", id, chunk);
      r.issue();
      tracer.end(l);
      const std::int64_t w = tracer.begin("wait", id, chunk);
      r.wait();
      tracer.end(w);
    } catch (const std::exception& e) {
      err = e.what();
    }
    const double us = seconds_between(t0, Clock::now()) * 1e6;
    tracer.end(chunk);
    wall_ms += us / 1e3;
    (timed_trace ? r.us_traced : r.us_plain).push_back(us / kChunk);
    r.error = err;
  }
  s.advance_reference(kChunk);
  for (Rung& r : s.rungs) {
    if (!r.error.empty())
      tally.fail(std::string("step ") + r.name + ": " + r.error);
    else if (!r.check())
      tally.fail(std::string("step ") + r.name + ": result differs from the "
                 "host reference after " + std::to_string(s.ref_steps) + " steps");
    else
      tally.ok();
  }
  return wall_ms;
}

/// Moves the launch records the round left behind into the engine
/// aggregate (traced) or drops them, so the logs do not grow.
void drain_logs(StepBench::State& s, EngineAgg* engine) {
  for (simt::Device* d : {&simt::sim_a100(), &simt::sim_mi250(), s.one_worker.get()}) {
    if (engine != nullptr) engine->add_all(d->launch_log());
    d->clear_launch_log();
  }
}

}  // namespace

void StepBench::warmup(Tally& tally) {
  Tracer off;
  round(*s_, tally, off, false);
  drain_logs(*s_, nullptr);
}

void StepBench::run(const Plan& plan, bool trace, Tally& tally, Metrics& e2e,
                    Metrics& layer, Tracer& tracer, EngineAgg& engine) {
  State& s = *s_;
  for (Rung& r : s.rungs) {
    r.us_plain.clear();
    r.us_traced.clear();
  }
  const auto t0 = Clock::now();
  int rounds = 0;
  while (rounds < plan.step_min_rounds ||
         seconds_between(t0, Clock::now()) < plan.step_seconds) {
    // Traced runs alternate plain and traced rounds: the pair gives the
    // tracing overhead, the traced rounds give the ladder.
    const bool traced_round = trace && rounds % 2 == 1;
    tracer.set_on(traced_round);
    const double wall_ms = round(s, tally, tracer, traced_round);
    if (traced_round) engine.op_wall_ms += wall_ms;
    drain_logs(s, traced_round ? &engine : nullptr);
    rounds++;
  }
  tracer.set_on(false);

  auto us = [&](const char* name) {
    const Rung& r = s.rung(name);
    return median(trace ? r.us_traced : r.us_plain);
  };
  e2e["steps_per_s"] = {1e6 / us("ompx"), "1/s"};
  e2e["kl_steps_per_s"] = {1e6 / us("kl"), "1/s"};
  e2e["graph_steps_per_s"] = {1e6 / us("graph"), "1/s"};
  e2e["tenant_steps_per_s"] = {1e6 / us("serve"), "1/s"};
  e2e["blas_steps_per_s"] = {2e6 / (us("blas_nv") + us("blas_roc")), "1/s"};

  for (const Rung& r : s.rungs)
    layer[std::string("ladder.") + r.name + "_us"] = {us(r.name), "us"};
  layer["overhead.fanout_us"] = {us("launch_sync") - us("launch_sync_1w"), "us"};
  layer["overhead.stream_us"] = {us("stream") - us("launch_sync"), "us"};
  layer["overhead.ompx_us"] = {us("ompx") - us("stream"), "us"};
  layer["overhead.capi_us"] = {us("capi") - us("stream"), "us"};
  layer["overhead.kl_us"] = {us("kl") - us("stream"), "us"};
  layer["overhead.serve_us"] = {us("serve") - us("launch_sync"), "us"};
  layer["overhead.graph_saving_us"] = {us("stream") - us("graph"), "us"};
  if (trace) {
    const Rung& o = s.rung("ompx");
    layer["trace.overhead.step"] = {median(o.us_traced) / median(o.us_plain) - 1.0,
                                    "ratio"};
  }

  std::printf("step_loop: %d round(s) x %d steps per rung, %llu steps "
              "checked per rung\n",
              rounds, kChunk, static_cast<unsigned long long>(s.ref_steps));
  for (const Rung& r : s.rungs)
    std::printf("  %-18s %9.2f us/step (median of n=%zu chunks)\n", r.name,
                us(r.name), (trace ? r.us_traced : r.us_plain).size());
}

}  // namespace perfbench
