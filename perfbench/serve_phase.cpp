// serve_mix: a closed loop of tenants (one thread each, no think time)
// replaying a seeded mix of six Fig. 8-shaped endpoints through one
// serve::Server. Every request rents scratch from its client, launches,
// frees, and checks its checksum.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "core/ompx.h"
#include "phases.h"
#include "simt/simt.h"

namespace perfbench {

namespace {

/// Grid/block silhouette and roofline cost of each Fig. 8 app kernel
/// (the shapes bench/serve_traffic replays).
struct Endpoint {
  const char* name;
  std::uint32_t grid;
  std::uint32_t block;
  double flops_per_thread;
  double bytes_per_thread;
  std::size_t alloc_bytes;  ///< scratch the request rents
};

constexpr Endpoint kEndpoints[] = {
    {"xsbench", 64, 256, 120.0, 96.0, 64 << 10},
    {"rsbench", 48, 256, 400.0, 48.0, 48 << 10},
    {"su3", 32, 128, 950.0, 64.0, 96 << 10},
    {"aidw", 24, 128, 300.0, 32.0, 32 << 10},
    {"adam", 96, 256, 60.0, 72.0, 128 << 10},
    {"stencil1d", 128, 64, 30.0, 24.0, 16 << 10},
};
constexpr std::size_t kNumEndpoints = sizeof kEndpoints / sizeof kEndpoints[0];
constexpr std::uint32_t kMaxTenants = 4;
/// Requests per window of the end-to-end serve metrics: at 1,000 the
/// nearest-rank p99 has at least ten samples above it.
constexpr std::size_t kWindow = 1000;

struct Sample {
  std::uint32_t endpoint;
  double latency_ms;  ///< submit to return of ClientContext::launch
  double service_ms;  ///< the combined record's wall (first chunk to last)
  double alloc_us;    ///< client malloc + free
  double done_s;      ///< completion, seconds since the run started
};

struct TenantOut {
  Tally tally;
  std::vector<Sample> samples;
};

}  // namespace

struct ServeBench::State {
  serve::Server* server = nullptr;
  std::vector<serve::ClientContext*> clients;
  std::vector<Rng> rngs;
};

ServeBench::ServeBench(std::uint64_t seed, serve::Server& server)
    : s_(std::make_unique<State>()) {
  s_->server = &server;
  const unsigned n = std::max(
      1u, std::min(kMaxTenants, std::thread::hardware_concurrency()));
  serve::ClientLimits limits;
  limits.memory_quota_bytes = 4 << 20;
  limits.max_pending = 8;
  for (unsigned i = 0; i < n; ++i) {
    s_->clients.push_back(server.create_client(&simt::sim_a100(), limits));
    s_->rngs.push_back(Rng{seed * 0x9e37u + i * 0x51ed2701u});
  }
}

ServeBench::~ServeBench() {
  for (serve::ClientContext* c : s_->clients) {
    try {
      s_->server->destroy_client(c);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: serve teardown: %s\n", e.what());
    }
  }
}

namespace {

/// One request end to end; returns false (with the tally updated) when
/// it failed.
bool one_request(serve::ClientContext& client, std::uint32_t e,
                 std::uint64_t v, std::uint64_t id, Tracer& tracer,
                 TenantOut& out) {
  const Endpoint& ep = kEndpoints[e];
  const std::int64_t req = tracer.begin("request", id);
  Sample smp{e, 0, 0, 0, 0};
  void* scratch = nullptr;
  std::string err;
  std::atomic<std::uint64_t> sum{0};
  try {
    std::int64_t sp = tracer.begin("malloc", id, req);
    auto t0 = Clock::now();
    scratch = client.malloc(ep.alloc_bytes);
    smp.alloc_us = seconds_between(t0, Clock::now()) * 1e6;
    tracer.end(sp);

    simt::LaunchParams p;
    p.grid = {ep.grid};
    p.block = {ep.block};
    p.name = ep.name;
    p.cost.flops_per_thread = ep.flops_per_thread;
    p.cost.global_bytes_per_thread = ep.bytes_per_thread;
    sp = tracer.begin("launch", id, req);
    t0 = Clock::now();
    const simt::LaunchRecord rec = client.launch(p, [&sum, v] {
      const simt::ThreadCtx& t = simt::this_thread();
      const std::uint64_t gid =
          static_cast<std::uint64_t>(t.block_idx.x) * t.block_dim.x + t.flat_tid;
      sum.fetch_add(gid + v, std::memory_order_relaxed);
    });
    smp.latency_ms = seconds_between(t0, Clock::now()) * 1e3;
    smp.service_ms = rec.wall_ms;
    tracer.end(sp);

    sp = tracer.begin("free", id, req);
    t0 = Clock::now();
    client.free(scratch);
    scratch = nullptr;
    smp.alloc_us += seconds_between(t0, Clock::now()) * 1e6;
    tracer.end(sp);

    const std::uint64_t n = std::uint64_t{ep.grid} * ep.block;
    if (sum.load() != n * (n - 1) / 2 + n * v) err = "checksum mismatch";
  } catch (const std::exception& ex) {
    err = ex.what();
    if (scratch != nullptr) {
      try {
        client.free(scratch);
      } catch (const std::exception&) {
      }
    }
  }
  tracer.end(req);
  if (!err.empty()) {
    out.tally.fail(std::string("serve ") + ep.name + ": " + err);
    return false;
  }
  out.tally.ok();
  out.samples.push_back(smp);
  return true;
}

/// Runs every tenant's closed loop until `seconds` have passed and at
/// least `min_requests` requests completed in total.
std::vector<TenantOut> run_tenants(ServeBench::State& s, double seconds,
                                   int min_requests, std::vector<Tracer>& tracers,
                                   double* wall_s) {
  const std::size_t n = s.clients.size();
  std::vector<TenantOut> outs(n);
  std::atomic<int> completed{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      std::uint64_t k = 0;
      while (seconds_between(t0, Clock::now()) < seconds ||
             completed.load(std::memory_order_relaxed) < min_requests) {
        const std::uint32_t e =
            static_cast<std::uint32_t>(s.rngs[i].next() % kNumEndpoints);
        const std::uint64_t v = s.rngs[i].next() & 0xffff;
        if (one_request(*s.clients[i], e, v, (i << 32) | k++, tracers[i], outs[i])) {
          outs[i].samples.back().done_s = seconds_between(t0, Clock::now());
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  *wall_s = seconds_between(t0, Clock::now());
  return outs;
}

}  // namespace

void ServeBench::warmup(Tally& tally) {
  for (std::size_t i = 0; i < s_->clients.size(); ++i) {
    Tracer off;
    TenantOut out;
    for (std::uint32_t e = 0; e < kNumEndpoints; ++e)
      one_request(*s_->clients[i], e, e, 0, off, out);
    tally.merge(out.tally);
  }
  simt::sim_a100().clear_launch_log();
}

void ServeBench::run(const Plan& plan, bool trace, Tally& tally, Metrics& e2e,
                     Metrics& layer, std::vector<Tracer>& tracers,
                     EngineAgg& engine) {
  State& s = *s_;
  const std::size_t n = s.clients.size();
  tracers.resize(n);
  double untraced_p50 = 0;
  if (trace) {
    // A shorter untraced run first: its p50 is the tracing-overhead base.
    std::vector<Tracer> off(n);
    double wall = 0;
    const auto outs = run_tenants(s, plan.serve_seconds / 2,
                                  plan.serve_min_requests / 2, off, &wall);
    std::vector<double> lat;
    for (const auto& o : outs) {
      tally.merge(o.tally);
      for (const Sample& x : o.samples) lat.push_back(x.latency_ms);
    }
    untraced_p50 = nearest_rank(lat, 50);
    simt::sim_a100().clear_launch_log();
    for (Tracer& t : tracers) t.set_on(true);
    ompx::Profiler::start();
  }

  std::vector<serve::ClientStats> before;
  for (serve::ClientContext* c : s.clients) before.push_back(c->stats());
  double wall_s = 0;
  std::vector<TenantOut> outs =
      run_tenants(s, plan.serve_seconds, plan.serve_min_requests, tracers, &wall_s);
  if (trace) {
    ompx::Profiler::stop();
    for (Tracer& t : tracers) t.set_on(false);
    engine.add_all(simt::sim_a100().launch_log());
  }
  simt::sim_a100().clear_launch_log();

  std::vector<Sample> all;
  std::vector<double> queue_wait, service, alloc;
  std::vector<std::vector<double>> by_endpoint(kNumEndpoints);
  std::uint64_t quanta_total = 0, quanta_min = ~0ull, blocks = 0, admission = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tally.merge(outs[i].tally);
    if (outs[i].samples.empty())
      tally.fail("serve: tenant " + std::to_string(i) + " starved (no request "
                 "completed)");
    for (const Sample& x : outs[i].samples) {
      all.push_back(x);
      queue_wait.push_back(x.latency_ms - x.service_ms);
      service.push_back(x.service_ms);
      alloc.push_back(x.alloc_us);
      by_endpoint[x.endpoint].push_back(x.latency_ms);
      if (trace) engine.op_wall_ms += x.latency_ms;
    }
    const serve::ClientStats now = s.clients[i]->stats();
    const std::uint64_t q = now.quanta - before[i].quanta;
    quanta_total += q;
    quanta_min = std::min(quanta_min, q);
    blocks += now.blocks_executed - before[i].blocks_executed;
    admission += now.admission_rejections - before[i].admission_rejections;
  }
  const double fair = static_cast<double>(quanta_total) / static_cast<double>(n);
  const double completed = static_cast<double>(all.size());

  // Rate and latency percentiles per window of consecutive completions,
  // reported as medians over the windows: a few seconds of interference
  // from elsewhere on the host then moves one window, not the result.
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.done_s < b.done_s; });
  const std::size_t windows = std::max<std::size_t>(1, all.size() / kWindow);
  std::vector<double> rps, p50s, p99s;
  std::size_t min_above99 = all.size();
  double window_start_s = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = w * all.size() / windows;
    const std::size_t hi = (w + 1) * all.size() / windows;
    std::vector<double> lat;
    for (std::size_t i = lo; i < hi; ++i) lat.push_back(all[i].latency_ms);
    std::size_t above99 = 0;
    p50s.push_back(nearest_rank(lat, 50));
    p99s.push_back(nearest_rank(lat, 99, &above99));
    min_above99 = std::min(min_above99, above99);
    const double end_s = all[hi - 1].done_s;
    rps.push_back(static_cast<double>(hi - lo) / (end_s - window_start_s));
    window_start_s = end_s;
  }
  const double p50 = median(p50s);
  const double p99 = median(p99s);

  e2e["serve_rps"] = {median(rps), "1/s"};
  e2e["serve_p50_ms"] = {p50, "ms"};
  // Not gated end to end: interference from elsewhere on the host can
  // double the p99 of a whole run (see perfbench/README.md).
  layer["serve.latency_ms.p99"] = {p99, "ms"};
  e2e["serve_min_share"] = {fair > 0 ? static_cast<double>(quanta_min) / fair : 0,
                            "ratio"};

  std::size_t qw_above99 = 0;
  layer["serve.queue_wait_ms.p50"] = {nearest_rank(queue_wait, 50), "ms"};
  layer["serve.queue_wait_ms.p99"] = {nearest_rank(queue_wait, 99, &qw_above99),
                                      "ms"};
  layer["serve.service_ms.p50"] = {nearest_rank(service, 50), "ms"};
  layer["serve.quanta_per_request"] = {
      completed > 0 ? static_cast<double>(quanta_total) / completed : 0, "count"};
  layer["serve.blocks_per_quantum"] = {
      quanta_total > 0 ? static_cast<double>(blocks) / quanta_total : 0, "count"};
  layer["serve.alloc_us.p50"] = {nearest_rank(alloc, 50), "us"};
  layer["serve.admission_rejections"] = {static_cast<double>(admission), "count"};
  for (std::size_t e = 0; e < kNumEndpoints; ++e)
    layer[std::string("serve.endpoint.") + kEndpoints[e].name + ".p50_ms"] = {
        nearest_rank(by_endpoint[e], 50), "ms"};
  if (trace) {
    std::vector<double> lat;
    for (const Sample& x : all) lat.push_back(x.latency_ms);
    layer["trace.overhead.serve"] = {nearest_rank(lat, 50) / untraced_p50 - 1.0,
                                     "ratio"};
  }

  std::printf("serve_mix: %zu tenants, %.0f requests in %.2f s, %zu "
              "window(s) of >= %zu; medians over windows of nearest-rank "
              "p50 %.3f ms and p99 %.3f ms (fewest above a window's p99: "
              "%zu); whole-run queue-wait p99 has %zu above\n",
              n, completed, wall_s, windows,
              all.size() / windows, p50, p99, min_above99, qw_above99);
  if (min_above99 < 10)
    tally.fail("serve: a window's p99 has only " + std::to_string(min_above99) +
               " samples above it (need 10)");
}

}  // namespace perfbench
