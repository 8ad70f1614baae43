// fig8_grid: the paper's Figure 8 grid, every cell checksum-verified.
// The apps run their own fixed inputs (src/apps/harness.cpp); the
// workload seed does not reach them.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "apps/harness.h"
#include "core/ompx.h"
#include "phases.h"

namespace perfbench {

namespace {

constexpr apps::Version kVersions[] = {
    apps::Version::kOmpx, apps::Version::kOmp, apps::Version::kNative,
    apps::Version::kNativeVendor};

struct Cell {
  std::string app;
  apps::Version version = apps::Version::kOmpx;
  std::string device;
  double wall_ms = 0;
  double kernel_ms = 0;
  double launch_wall_ms = 0;
  std::uint64_t atomics = 0;
  simt::LaunchStats stats;  ///< summed over the cell's launches
};

/// Metric-name form of an app name ("Stencil 1D" -> "stencil1d").
std::string key_of(const std::string& app) {
  std::string k;
  for (char c : app)
    if (c != ' ') k += static_cast<char>(std::tolower(c));
  return k;
}

/// The paper's omp XSBench port fails verification (as in the paper);
/// those two cells are the only expected INVALID outcomes.
bool expected_invalid(const apps::AppDesc& app, apps::Version v) {
  return app.name == "XSBench" && v == apps::Version::kOmp;
}

/// Runs one cell and checks its outcome against the expectation.
Cell run_one(const apps::AppDesc& app, apps::Version v, simt::Device& dev,
             Tally& tally, Tracer& tracer, std::uint64_t id, EngineAgg* engine) {
  Cell c;
  c.app = app.name;
  c.version = v;
  c.device = dev.config().name;
  const std::int64_t span = tracer.begin("apps::run_cell", id);
  const auto t0 = Clock::now();
  std::string failure;
  try {
    const apps::RunResult r = apps::run_cell(app, v, dev);
    c.kernel_ms = r.kernel_ms;
    if (r.valid == expected_invalid(app, v))
      failure = r.valid ? "valid, expected INVALID" : "INVALID checksum";
  } catch (const std::exception& e) {
    failure = std::string("threw: ") + e.what();
  }
  c.wall_ms = seconds_between(t0, Clock::now()) * 1e3;
  tracer.end(span);
  // The app cleared the log when it started, so it holds this cell only.
  const std::vector<simt::LaunchRecord> log = dev.launch_log();
  for (const auto& rec : log) {
    c.launch_wall_ms += rec.wall_ms;
    c.atomics += rec.stats.atomics;
    c.stats.parallel_handshakes += rec.stats.parallel_handshakes;
    c.stats.workshare_dispatches += rec.stats.workshare_dispatches;
    c.stats.globalized_bytes += rec.stats.globalized_bytes;
  }
  if (engine != nullptr) {
    engine->add_all(log);
    engine->op_wall_ms += c.wall_ms;
  }
  if (failure.empty())
    tally.ok();
  else
    tally.fail("fig8 " + c.app + "/" + apps::version_name(v) + "/" + c.device +
               ": " + failure);
  return c;
}

std::vector<Cell> run_pass(Tally& tally, Tracer& tracer, std::uint64_t pass,
                           EngineAgg* engine) {
  std::vector<Cell> cells;
  std::uint64_t id = pass * 100;
  const std::int64_t span = tracer.begin("fig8.pass", pass);
  for (simt::Device* dev : {&simt::sim_a100(), &simt::sim_mi250()})
    for (const apps::AppDesc& app : apps::registry())
      for (apps::Version v : kVersions)
        cells.push_back(run_one(app, v, *dev, tally, tracer, id++, engine));
  tracer.end(span);
  return cells;
}

double pass_wall_s(const std::vector<Cell>& cells) {
  double ms = 0;
  for (const Cell& c : cells) ms += c.wall_ms;
  return ms / 1e3;
}

/// Per-layer metrics of one traced pass (see perfbench/README.md).
void report_layers(const std::vector<Cell>& cells, Metrics& layer) {
  std::map<std::string, double> app_wall_ms;
  double wall = 0, launch_wall = 0, omp_wall = 0, ompx_wall = 0;
  double modeled = 0;
  simt::LaunchStats omp;
  std::map<std::string, std::map<std::string, double>> kernel;  // dev/app
  std::map<std::string, std::map<std::string, double>> native;
  for (const Cell& c : cells) {
    app_wall_ms[key_of(c.app)] += c.wall_ms;
    wall += c.wall_ms;
    launch_wall += c.launch_wall_ms;
    modeled += c.kernel_ms;
    if (c.version == apps::Version::kOmp) {
      omp_wall += c.wall_ms;
      omp.parallel_handshakes += c.stats.parallel_handshakes;
      omp.workshare_dispatches += c.stats.workshare_dispatches;
      omp.globalized_bytes += c.stats.globalized_bytes;
    }
    if (c.version == apps::Version::kOmpx) {
      ompx_wall += c.wall_ms;
      kernel[c.device][c.app] = c.kernel_ms;
    }
    if (c.version == apps::Version::kNative) native[c.device][c.app] = c.kernel_ms;
  }
  for (const auto& [app, ms] : app_wall_ms)
    layer["apps." + app + ".wall_s"] = {ms / 1e3, "s"};
  layer["apps.host_share"] = {wall > 0 ? 1.0 - launch_wall / wall : 0, "ratio"};
  layer["omp.wall_s"] = {omp_wall / 1e3, "s"};
  layer["omp.over_ompx"] = {ompx_wall > 0 ? omp_wall / ompx_wall : 0, "ratio"};
  layer["omp.parallel_handshakes"] = {
      static_cast<double>(omp.parallel_handshakes), "count"};
  layer["omp.workshare_dispatches"] = {
      static_cast<double>(omp.workshare_dispatches), "count"};
  layer["omp.globalized_bytes"] = {static_cast<double>(omp.globalized_bytes),
                                   "bytes"};
  for (const auto& [dev, by_app] : kernel) {
    double log_sum = 0;
    int n = 0;
    for (const auto& [app, ms] : by_app) {
      const double base = native[dev][app];
      if (ms > 0 && base > 0) {
        log_sum += std::log(ms / base);
        n++;
      }
    }
    layer["perf.ompx_over_native." + dev] = {n > 0 ? std::exp(log_sum / n) : 0,
                                             "ratio"};
  }
  layer["perf.modeled_ms_total"] = {modeled, "ms"};
}

/// ROADMAP item 1 made visible: per app, do the atomics count and the
/// modeled time of each cell repeat exactly across two passes?
void report_repeats(const std::vector<Cell>& a, const std::vector<Cell>& b,
                    Metrics& layer) {
  std::map<std::string, bool> atomics_same, modeled_same;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const std::string k = key_of(a[i].app);
    if (!atomics_same.count(k)) atomics_same[k] = modeled_same[k] = true;
    if (a[i].atomics != b[i].atomics) atomics_same[k] = false;
    if (a[i].kernel_ms != b[i].kernel_ms) modeled_same[k] = false;
  }
  for (const auto& [k, same] : atomics_same) {
    layer["repeat." + k + ".atomics"] = {same ? 1.0 : 0.0, "bool"};
    layer["repeat." + k + ".modeled_ms"] = {modeled_same[k] ? 1.0 : 0.0, "bool"};
    std::printf("repeat %-10s atomics %-6s modeled_ms %s\n", k.c_str(),
                same ? "same" : "DIFFER", modeled_same[k] ? "same" : "DIFFER");
  }
}

}  // namespace

void fig8_warmup(Tally& tally) {
  // Adam is the cheapest app (~35 ms a cell); its eight cells touch
  // every version's launch path on both devices before timing starts.
  Tracer off;
  for (const apps::AppDesc& app : apps::registry())
    if (app.name == "Adam")
      for (simt::Device* dev : {&simt::sim_a100(), &simt::sim_mi250()})
        for (apps::Version v : kVersions)
          run_one(app, v, *dev, tally, off, 0, nullptr);
}

void run_fig8(const Plan& plan, bool trace, Tally& tally, Metrics& e2e,
              Metrics& layer, Tracer& tracer, EngineAgg& engine) {
  std::vector<std::vector<Cell>> passes;
  const auto t0 = Clock::now();
  if (trace) {
    // Pass A untraced, pass B with spans and the engine profiler: the
    // pair gives the tracing overhead and the repeatability check.
    Tracer off;
    passes.push_back(run_pass(tally, off, 0, nullptr));
    tracer.set_on(true);
    ompx::Profiler::start();
    passes.push_back(run_pass(tally, tracer, 1, &engine));
    ompx::Profiler::stop();
    tracer.set_on(false);
    report_layers(passes[1], layer);
    report_repeats(passes[0], passes[1], layer);
    layer["trace.overhead.fig8"] = {
        pass_wall_s(passes[1]) / pass_wall_s(passes[0]) - 1.0, "ratio"};
  } else {
    while (static_cast<int>(passes.size()) < plan.fig8_min_passes ||
           seconds_between(t0, Clock::now()) < plan.fig8_seconds)
      passes.push_back(run_pass(tally, tracer, passes.size(), nullptr));
  }

  std::vector<double> walls;
  for (const auto& p : passes) walls.push_back(pass_wall_s(p));
  // Geomean over the 48 cells of each cell's median wall across passes.
  double log_sum = 0;
  const std::size_t ncells = passes[0].size();
  for (std::size_t i = 0; i < ncells; ++i) {
    std::vector<double> w;
    for (const auto& p : passes) w.push_back(p[i].wall_ms);
    log_sum += std::log(median(w));
  }
  e2e["fig8_wall_s"] = {median(walls), "s"};
  e2e["fig8_cell_ms_geomean"] = {std::exp(log_sum / ncells), "ms"};
  std::printf("fig8_grid: %zu pass(es) of %zu cells, wall s median %.3f "
              "(n=%zu)\n",
              passes.size(), ncells, median(walls), walls.size());
}

}  // namespace perfbench
