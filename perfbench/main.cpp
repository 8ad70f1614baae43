// The repository benchmark binary (built and run by run.py).
//
//   perfbench --workload fig8_grid|step_loop|serve_mix --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR] [--source-id ID]
//
// Prints a host block, per-phase summaries with sample counts, and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs
// the per-layer ones. Exits 1 when any output check failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "core/ompx.h"
#include "phases.h"

namespace {

using namespace perfbench;

/// Step rounds and serve requests of a probe: enough for a median over
/// rounds, and for ten samples above the serve p99.
constexpr int kStepProbeRounds = 24;
constexpr int kServeMinRequests = 3000;
constexpr int kSetups = 3;
constexpr std::uint32_t kServeQuantumBlocks = 16;
constexpr double kFailRatioFloor = 1e-6;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig8_grid|step_loop|serve_mix --seed N --seconds S --trace "
               "0|1 [--trace-dir DIR] [--source-id ID]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.seconds = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--trace-dir") o.trace_dir = v;
    else if (k == "--source-id") o.source_id = v;
    else usage(("unknown option " + k).c_str());
  }
  if (argc % 2 != 1) usage("options come in --name value pairs");
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

/// The workload's own phase gets the measured seconds; the other two
/// run fixed-size probes (see phases.h).
Plan plan_for(const Options& o) {
  Plan p;
  p.step_min_rounds = kStepProbeRounds;
  p.serve_min_requests = kServeMinRequests;
  if (o.workload == "fig8_grid") {
    p.fig8_min_passes = 2;
    p.fig8_seconds = o.seconds;
  } else if (o.workload == "step_loop") {
    p.step_seconds = o.seconds;
  } else if (o.workload == "serve_mix") {
    p.serve_seconds = o.seconds;
  } else {
    usage(("unknown workload '" + o.workload + "'").c_str());
  }
  return p;
}

/// Everything a run builds before its first timed operation. Members
/// are destroyed in reverse order, so the clients go before the server.
struct Setup {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<StepBench> step;
  std::unique_ptr<ServeBench> serve;
};

std::unique_ptr<Setup> make_setup(const Options& o, Tally& tally) {
  auto s = std::make_unique<Setup>();
  s->server = std::make_unique<serve::Server>();
  s->server->set_quantum_blocks(kServeQuantumBlocks);
  s->step = std::make_unique<StepBench>(o.seed, *s->server);
  s->serve = std::make_unique<ServeBench>(o.seed, *s->server);
  // Warm-up: fiber pools, learned exec hints, the instantiated graph's
  // first replay and the stream pools all settle before timing.
  s->step->warmup(tally);
  s->serve->warmup(tally);
  fig8_warmup(tally);
  return s;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + num +
           ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Options& o) {
  const Plan plan = plan_for(o);
  std::printf("host: {\"cpu\": %s, \"nproc\": %u, \"compiler\": %s, "
              "\"build_type\": %s, \"source\": %s}\n",
              json_string(cpu_model()).c_str(),
              std::thread::hardware_concurrency(),
              json_string(std::string("gcc-compatible ") + __VERSION__).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              json_string(o.source_id.empty() ? "unknown" : o.source_id).c_str());
  std::printf("run: workload %s, seed %llu, %.0f s, trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::fflush(stdout);

  Tally tally;
  // Set up several times and keep the last: the median is setup_s.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = make_setup(o, tally);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  Metrics e2e, layer;
  Tracer tracer;
  std::vector<Tracer> tenant_tracers;
  EngineAgg engine;
  auto fig8 = [&] { run_fig8(plan, o.trace, tally, e2e, layer, tracer, engine); };
  auto step = [&] { setup->step->run(plan, o.trace, tally, e2e, layer, tracer, engine); };
  auto serve = [&] {
    setup->serve->run(plan, o.trace, tally, e2e, layer, tenant_tracers, engine);
  };
  // The workload's own phase runs first, on an engine no probe has run on.
  double own_peak_mib = 0;
  if (o.workload == "fig8_grid") {
    fig8();
    own_peak_mib = peak_rss_mib();
    step();
    serve();
  } else if (o.workload == "step_loop") {
    step();
    own_peak_mib = peak_rss_mib();
    serve();
    fig8();
  } else {
    serve();
    own_peak_mib = peak_rss_mib();
    step();
    fig8();
  }
  std::printf("peak rss: %.1f MiB after set-up and the %s phase, %.1f MiB "
              "for the whole run\n",
              own_peak_mib, o.workload.c_str(), peak_rss_mib());
  setup.reset();

  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
  // Failed over attempted, floored at kFailRatioFloor so it is never 0.
  // A run attempts thousands of operations, so one failure reads at
  // least a hundred times the floor.
  e2e["fail_ratio"] = {std::max(kFailRatioFloor,
                                static_cast<double>(tally.failed) /
                                    static_cast<double>(std::max<std::uint64_t>(
                                        1, tally.attempted))),
                       "ratio"};
  std::printf("setup: median %.4f s of n=%d set-ups; ops attempted %llu, "
              "failed %llu\n",
              median(setup_s), kSetups,
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));

  if (o.trace) {
    engine.report(layer);
    ompx_mempool_stats_t mp{};
    if (ompx_mempool_get_stats(0, &mp) == OMPX_SUCCESS) {
      layer["mempool.reuse_hits"] = {static_cast<double>(mp.reuse_hits), "count"};
      layer["mempool.misses"] = {static_cast<double>(mp.misses), "count"};
    }
    if (!o.trace_dir.empty()) {
      // One file pair per workload: the next traced run replaces it.
      const std::string base = o.trace_dir + "/" + o.workload;
      std::vector<std::pair<std::string, const Tracer*>> tracks = {{"main", &tracer}};
      for (std::size_t i = 0; i < tenant_tracers.size(); ++i)
        tracks.push_back({"tenant " + std::to_string(i), &tenant_tracers[i]});
      if (!write_spans(base + ".spans.json", tracks) ||
          !ompx::Profiler::dump(base + ".engine.json"))
        std::fprintf(stderr, "perfbench: cannot write traces under %s\n",
                     o.trace_dir.c_str());
      else
        std::printf("trace: spans in %s.spans.json, engine spans in "
                    "%s.engine.json\n",
                    base.c_str(), base.c_str());
    }
  }
  for (const std::string& e : tally.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  print_result(tally, o.trace ? layer : e2e);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it
  // rises after the first large free, and whether later large blocks
  // stay on a heap then depends on thread timing: peak RSS of identical
  // runs read 48-80 MiB. Pinned, it repeats within 1%.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Options o = parse(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
