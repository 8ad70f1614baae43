// The shared helpers of common.h and the engine aggregate of phases.h.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "phases.h"

namespace perfbench {

namespace {

const Clock::time_point kOrigin = Clock::now();

/// Microseconds since the process's time origin (span timestamps).
double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kOrigin).count();
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void Tally::fail(const std::string& why) {
  attempted++;
  failed++;
  if (errors.size() < 32) errors.push_back(why);
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& e : other.errors)
    if (errors.size() < 32) errors.push_back(e);
}

double nearest_rank(std::vector<double> samples, double p, std::size_t* above) {
  if (above != nullptr) *above = 0;
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (above != nullptr) *above = n - rank;
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

std::int64_t Tracer::begin(const char* name, std::uint64_t id,
                           std::int64_t parent) {
  if (!on_) return -1;
  spans_.push_back({name, now_us(), 0, parent, id});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::end(std::int64_t span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end_us = now_us();
}

bool write_spans(const std::string& path,
                 const std::vector<std::pair<std::string, const Tracer*>>& tracks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    std::fprintf(f, "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t, tracks[t].first.c_str());
    first = false;
    for (const Span& s : tracks[t].second->spans())
      std::fprintf(f, ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%lld}}",
                   s.name.c_str(), t, s.start_us, s.end_us - s.start_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void EngineAgg::add(const simt::LaunchRecord& r) {
  const simt::LaunchStats& s = r.stats;
  launches++;
  threads += s.threads;
  deflations += s.sched_deflations;
  lane_loops += s.sched_lane_loops;
  fibers_created += s.fibers_created;
  fiber_reuses += s.fiber_reuses;
  steals += s.sched_steals;
  barriers += s.block_barriers;
  atomics += s.atomics;
  launch_wall_ms += r.wall_ms;
  if (r.exec_mode == "fiber") {
    fiber_ms += r.wall_ms;
    fiber_threads += s.threads;
  } else if (r.exec_mode == "convergent") {
    convergent_ms += r.wall_ms;
    convergent_threads += s.threads;
  }
}

void EngineAgg::report(Metrics& layer) const {
  auto count = [&](const char* name, std::uint64_t v) {
    layer[name] = {static_cast<double>(v), "count"};
  };
  count("engine.launches", launches);
  count("engine.threads", threads);
  count("engine.deflations", deflations);
  count("engine.fibers_created", fibers_created);
  count("engine.steals", steals);
  count("engine.barriers", barriers);
  count("engine.atomics", atomics);
  layer["engine.wall_share"] = {ratio(launch_wall_ms, op_wall_ms), "ratio"};
  layer["engine.ns_per_thread.fiber"] = {ratio(fiber_ms * 1e6, fiber_threads), "ns"};
  layer["engine.ns_per_thread.convergent"] = {
      ratio(convergent_ms * 1e6, convergent_threads), "ns"};
  layer["engine.lane_loop_share"] = {ratio(lane_loops, threads), "ratio"};
  layer["engine.fiber_reuse_rate"] = {
      ratio(fiber_reuses, fiber_reuses + fibers_created), "ratio"};
}

}  // namespace perfbench
