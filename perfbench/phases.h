// The benchmark's three phases. Every run reports every end-to-end
// metric, so each workload runs all three: its own phase for the
// measured seconds, the other two as fixed-size probes. Each phase
// checks its outputs and records every operation in the Tally.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "serve/serve.h"
#include "simt/device.h"

namespace perfbench {

/// Folds engine launch records into the engine.* per-layer metrics.
struct EngineAgg {
  std::uint64_t launches = 0, threads = 0, deflations = 0, lane_loops = 0;
  std::uint64_t fibers_created = 0, fiber_reuses = 0, steals = 0;
  std::uint64_t barriers = 0, atomics = 0;
  double launch_wall_ms = 0;  ///< host wall inside launches
  double op_wall_ms = 0;      ///< host wall of the ops that issued them
  double fiber_ms = 0, convergent_ms = 0;
  std::uint64_t fiber_threads = 0, convergent_threads = 0;
  void add(const simt::LaunchRecord& r);
  void add_all(const std::vector<simt::LaunchRecord>& rs) {
    for (const auto& r : rs) add(r);
  }
  void report(Metrics& layer) const;
};

/// fig8_grid: the paper's Fig. 8, 6 apps x 4 versions x 2 devices.
void fig8_warmup(Tally& tally);
void run_fig8(const Plan& plan, bool trace, Tally& tally, Metrics& e2e,
              Metrics& layer, Tracer& tracer, EngineAgg& engine);

/// step_loop: a 1-D heat solver (16 blocks x 256 threads) stepped
/// through every entry point of the launch ladder.
class StepBench {
 public:
  StepBench(std::uint64_t seed, serve::Server& server);
  ~StepBench();
  StepBench(const StepBench&) = delete;
  StepBench& operator=(const StepBench&) = delete;

  /// One chunk through every rung; part of set-up.
  void warmup(Tally& tally);
  void run(const Plan& plan, bool trace, Tally& tally, Metrics& e2e,
           Metrics& layer, Tracer& tracer, EngineAgg& engine);

  struct State;

 private:
  std::unique_ptr<State> s_;
};

/// serve_mix: closed-loop tenants replaying fig8-shaped requests
/// through one serve::Server.
class ServeBench {
 public:
  ServeBench(std::uint64_t seed, serve::Server& server);
  ~ServeBench();
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// Every tenant sends every endpoint once; part of set-up.
  void warmup(Tally& tally);
  void run(const Plan& plan, bool trace, Tally& tally, Metrics& e2e,
           Metrics& layer, std::vector<Tracer>& tracers, EngineAgg& engine);

  struct State;

 private:
  std::unique_ptr<State> s_;
};

}  // namespace perfbench
