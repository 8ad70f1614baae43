// Multi-tenant traffic replay: N closed-loop clients hammer one
// simulated device through the serving layer (src/serve), drawing
// requests from a seeded trace whose six endpoints are shaped like the
// Fig. 8 application kernels. Reports request-latency percentiles
// (p50/p95/p99), aggregate launches/s, and the per-client fairness
// spread (scheduler quanta vs the fair share).
//
//   serve_traffic [--clients=N] [--requests=M] [--seed=S] [--quantum=Q]
//                 [--trace-out=path] [--json[=path]]
//                 [--fault=<spec>] [--san[=checks]] [--trace[=path]]
//
// Every request is individually fault-tolerant: an injected OOM, an
// admission rejection, a watchdog timeout, or a device loss fails that
// request alone (counted and reported), the client keeps replaying, and
// the driver still exits 0 with percentiles — the CI smoke runs
// `--clients=4 --fault=oom:p=0.01,seed=7` and expects a p99 and no
// starved client. Exit 1 means a correctness failure: a checksum
// mismatch on a request that reported success, or a client that ended
// the replay with zero completed launches.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "fig8_common.h"
#include "serve/serve.h"
#include "simt/simt.h"

namespace {

/// One trace endpoint, shaped after a Fig. 8 application kernel: the
/// grid/block silhouette and a rough roofline cost, not the app itself
/// (the bench measures the serving layer, not the kernels).
struct Endpoint {
  const char* name;
  std::uint32_t grid;
  std::uint32_t block;
  double flops_per_thread;
  double bytes_per_thread;
  std::size_t alloc_bytes;  ///< scratch the request rents from its quota
};

constexpr Endpoint kEndpoints[] = {
    {"xsbench", 64, 256, 120.0, 96.0, 64 << 10},
    {"rsbench", 48, 256, 400.0, 48.0, 48 << 10},
    {"su3", 32, 128, 950.0, 64.0, 96 << 10},
    {"aidw", 24, 128, 300.0, 32.0, 32 << 10},
    {"adam", 96, 256, 60.0, 72.0, 128 << 10},
    {"stencil1d", 128, 64, 30.0, 24.0, 16 << 10},
};
constexpr std::size_t kNumEndpoints =
    sizeof kEndpoints / sizeof kEndpoints[0];

/// Deterministic per-client request stream (splitmix64).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RequestLog {
  int client;
  std::uint32_t endpoint;
  double latency_ms;
  bool ok;
  const char* error;  ///< static string, "" when ok
};

struct ClientOutcome {
  std::uint64_t ok = 0;
  std::uint64_t oom = 0;
  std::uint64_t admission = 0;
  std::uint64_t timeout = 0;
  std::uint64_t device_lost = 0;
  std::uint64_t other = 0;
  std::uint64_t checksum_bad = 0;
  std::vector<RequestLog> log;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t n = sorted.size();
  std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return sorted[idx];
}

int int_flag(int argc, char** argv, const char* name, int fallback) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
      return std::atoi(argv[i] + len + 1);
  return fallback;
}

std::string str_flag(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
      return std::string(argv[i] + len + 1);
  return "";
}

void replay_client(serve::ClientContext* client, int id, int requests,
                   std::uint64_t seed, ClientOutcome* out) {
  Rng rng{seed + static_cast<std::uint64_t>(id) * 0x51ed2701u};
  out->log.reserve(static_cast<std::size_t>(requests));
  for (int r = 0; r < requests; ++r) {
    const Endpoint& ep = kEndpoints[rng.next() % kNumEndpoints];
    const double t0 = now_ms();
    bool ok = false;
    const char* error = "";
    std::atomic<std::uint64_t> sum{0};
    try {
      void* scratch = client->malloc(ep.alloc_bytes);
      simt::LaunchParams p;
      p.grid = {ep.grid, 1, 1};
      p.block = {ep.block, 1, 1};
      p.name = ep.name;
      p.cost.flops_per_thread = ep.flops_per_thread;
      p.cost.global_bytes_per_thread = ep.bytes_per_thread;
      try {
        client->launch(p, [&sum] {
          const simt::ThreadCtx& t = simt::this_thread();
          const std::uint64_t gid =
              static_cast<std::uint64_t>(t.block_idx.x) * t.block_dim.x +
              t.flat_tid;
          sum.fetch_add(gid, std::memory_order_relaxed);
        });
        const std::uint64_t threads =
            std::uint64_t{ep.grid} * std::uint64_t{ep.block};
        if (sum.load() == threads * (threads - 1) / 2) {
          ok = true;
        } else {
          error = "checksum";
          out->checksum_bad++;
        }
      } catch (...) {
        client->free(scratch);
        throw;
      }
      client->free(scratch);
    } catch (...) {
      using simt::ErrorClass;
      switch (simt::classify_exception().cls) {
        case ErrorClass::kDeviceOOM: error = "oom"; out->oom++; break;
        case ErrorClass::kAdmission:
          error = "admission"; out->admission++; break;
        case ErrorClass::kTimeout: error = "timeout"; out->timeout++; break;
        case ErrorClass::kDeviceLost:
          error = "device_lost"; out->device_lost++; break;
        default: error = "error"; out->other++;
      }
    }
    if (ok) out->ok++;
    out->log.push_back(
        {id, static_cast<std::uint32_t>(&ep - kEndpoints), now_ms() - t0,
         ok, error});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::TraceGuard trace(argc, argv, "serve_traffic_trace.json");
  bench::SanGuard san(argc, argv);
  bench::FaultGuard fault(argc, argv);

  const int clients = std::max(1, int_flag(argc, argv, "--clients", 8));
  const int requests = std::max(1, int_flag(argc, argv, "--requests", 64));
  const int quantum = std::max(1, int_flag(argc, argv, "--quantum", 16));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(int_flag(argc, argv, "--seed", 42));
  const std::string trace_out = str_flag(argc, argv, "--trace-out");
  std::string json_path;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    }
  }

  serve::Server server;
  server.set_quantum_blocks(static_cast<std::uint32_t>(quantum));
  serve::ClientLimits limits;
  limits.memory_quota_bytes = 4 << 20;
  limits.max_pending = 8;
  std::vector<serve::ClientContext*> handles(
      static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i)
    handles[static_cast<std::size_t>(i)] =
        server.create_client(&simt::sim_a100(), limits);

  std::vector<ClientOutcome> outcomes(static_cast<std::size_t>(clients));
  const double wall0 = now_ms();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int i = 0; i < clients; ++i)
      threads.emplace_back(replay_client, handles[static_cast<std::size_t>(i)],
                           i, requests, seed,
                           &outcomes[static_cast<std::size_t>(i)]);
    for (auto& t : threads) t.join();
  }
  const double wall_ms = now_ms() - wall0;

  // --- aggregate -----------------------------------------------------------
  std::vector<double> latencies;
  std::uint64_t ok = 0, oom = 0, admission = 0, timeout = 0, lost = 0,
                other = 0, checksum_bad = 0;
  for (const ClientOutcome& o : outcomes) {
    ok += o.ok;
    oom += o.oom;
    admission += o.admission;
    timeout += o.timeout;
    lost += o.device_lost;
    other += o.other;
    checksum_bad += o.checksum_bad;
    for (const RequestLog& r : o.log)
      if (r.ok) latencies.push_back(r.latency_ms);
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p95 = percentile(latencies, 0.95);
  const double p99 = percentile(latencies, 0.99);
  const double launches_per_s =
      wall_ms > 0.0 ? static_cast<double>(ok) / (wall_ms / 1000.0) : 0.0;

  std::uint64_t quanta_total = 0, quanta_min = ~0ull, quanta_max = 0;
  std::uint64_t starved = 0;
  for (int i = 0; i < clients; ++i) {
    const serve::ClientStats st =
        handles[static_cast<std::size_t>(i)]->stats();
    quanta_total += st.quanta;
    quanta_min = std::min(quanta_min, st.quanta);
    quanta_max = std::max(quanta_max, st.quanta);
    if (outcomes[static_cast<std::size_t>(i)].ok == 0) starved++;
  }
  const double fair_share =
      static_cast<double>(quanta_total) / static_cast<double>(clients);
  const double min_share_ratio =
      fair_share > 0.0 ? static_cast<double>(quanta_min) / fair_share : 1.0;

  if (!trace_out.empty()) {
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "serve_traffic: cannot write %s\n",
                   trace_out.c_str());
    } else {
      std::fprintf(f, "client,endpoint,latency_ms,status\n");
      for (const ClientOutcome& o : outcomes)
        for (const RequestLog& r : o.log)
          std::fprintf(f, "%d,%s,%.4f,%s\n", r.client,
                       kEndpoints[r.endpoint].name, r.latency_ms,
                       r.ok ? "ok" : r.error);
      std::fclose(f);
      std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
    }
  }

  if (json) {
    std::string out;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\n"
                  "  \"bench\": \"serve_traffic\",\n"
                  "  \"clients\": %d, \"requests_per_client\": %d,\n"
                  "  \"quantum_blocks\": %d, \"seed\": %llu,\n"
                  "  \"completed\": %llu, \"failed\": %llu,\n"
                  "  \"latency_ms\": { \"p50\": %.3f, \"p95\": %.3f, "
                  "\"p99\": %.3f },\n",
                  clients, requests, quantum,
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(ok),
                  static_cast<unsigned long long>(oom + admission + timeout +
                                                  lost + other),
                  p50, p95, p99);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "  \"launches_per_s\": %.0f,\n"
                  "  \"fairness\": { \"quanta_min\": %llu, \"quanta_max\": "
                  "%llu, \"min_share_ratio\": %.3f },\n"
                  "  \"faults\": { \"oom\": %llu, \"admission\": %llu, "
                  "\"timeout\": %llu, \"device_lost\": %llu, \"other\": "
                  "%llu }\n"
                  "}\n",
                  launches_per_s,
                  static_cast<unsigned long long>(quanta_min),
                  static_cast<unsigned long long>(quanta_max),
                  min_share_ratio, static_cast<unsigned long long>(oom),
                  static_cast<unsigned long long>(admission),
                  static_cast<unsigned long long>(timeout),
                  static_cast<unsigned long long>(lost),
                  static_cast<unsigned long long>(other));
    out += buf;
    if (json_path.empty()) {
      std::fputs(out.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "serve_traffic: cannot write %s\n",
                     json_path.c_str());
        return 1;
      }
      std::fputs(out.c_str(), f);
      std::fclose(f);
    }
  } else {
    std::printf("serve_traffic: %d clients x %d requests, quantum %d "
                "blocks, seed %llu\n",
                clients, requests, quantum,
                static_cast<unsigned long long>(seed));
    std::printf("  latency ms: p50=%.3f p95=%.3f p99=%.3f (n=%zu)\n", p50,
                p95, p99, latencies.size());
    std::printf("  throughput: %.0f launches/s (%llu completed in %.1f "
                "ms)\n",
                launches_per_s, static_cast<unsigned long long>(ok),
                wall_ms);
    std::printf("  fairness: quanta min=%llu max=%llu fair=%.1f "
                "min/fair=%.2f\n",
                static_cast<unsigned long long>(quanta_min),
                static_cast<unsigned long long>(quanta_max), fair_share,
                min_share_ratio);
    std::printf("  faults: oom=%llu admission=%llu timeout=%llu "
                "device_lost=%llu other=%llu\n",
                static_cast<unsigned long long>(oom),
                static_cast<unsigned long long>(admission),
                static_cast<unsigned long long>(timeout),
                static_cast<unsigned long long>(lost),
                static_cast<unsigned long long>(other));
    for (int i = 0; i < clients; ++i) {
      const serve::ClientStats st =
          handles[static_cast<std::size_t>(i)]->stats();
      const ClientOutcome& o = outcomes[static_cast<std::size_t>(i)];
      std::printf("  client %d: ok=%llu fail=%llu quanta=%llu "
                  "blocks=%llu bytes_peak=%llu\n",
                  i, static_cast<unsigned long long>(o.ok),
                  static_cast<unsigned long long>(
                      o.oom + o.admission + o.timeout + o.device_lost +
                      o.other),
                  static_cast<unsigned long long>(st.quanta),
                  static_cast<unsigned long long>(st.blocks_executed),
                  static_cast<unsigned long long>(st.bytes_peak));
    }
  }

  for (serve::ClientContext* c : handles) server.destroy_client(c);

  // Correctness gate: a request that claimed success must have the
  // right checksum, and a closed-loop client can only end with zero
  // completions if the scheduler starved it.
  if (checksum_bad != 0) {
    std::fprintf(stderr, "serve_traffic: %llu checksum failure(s)\n",
                 static_cast<unsigned long long>(checksum_bad));
    return 1;
  }
  if (starved != 0) {
    std::fprintf(stderr, "serve_traffic: %llu starved client(s)\n",
                 static_cast<unsigned long long>(starved));
    return 1;
  }
  return 0;
}
