// Shared pieces of the repository benchmark: options, the outcome
// tally, named metrics, nearest-rank percentiles and the in-memory span
// recorder used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir;  ///< where a traced run writes its spans
  std::string source_id;  ///< git sha or source hash, for the host block
};

/// How long each phase runs in this process. The workload's own phase
/// gets the measured seconds; the others run a fixed-size probe so
/// every end-to-end metric is measured on every workload.
struct Plan {
  int fig8_min_passes = 1;
  double fig8_seconds = 0;  ///< keep starting passes until this elapsed
  double step_seconds = 0;
  int step_min_rounds = 0;
  double serve_seconds = 0;
  int serve_min_requests = 0;
};

/// Attempted and failed operations (a fig8 cell, a step chunk, a serve
/// request). A failure is recorded with its reason.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  void ok() { attempted++; }
  void fail(const std::string& why);
  void merge(const Tally& other);
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Nearest-rank percentile: the smallest sample with at least p% of
/// the samples at or below it. `above` receives how many samples lie
/// strictly after its rank. Empty input gives 0.
double nearest_rank(std::vector<double> samples, double p,
                    std::size_t* above = nullptr);
double median(std::vector<double> samples);

/// One recorded span. `parent` indexes the same recorder's spans (-1 =
/// root); `id` names the cell, chunk or request the span belongs to.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  std::int64_t parent = -1;
  std::uint64_t id = 0;
};

/// Span recorder for one thread. Disabled recorders cost one branch per
/// call; enabled ones append to memory and are written once at exit.
class Tracer {
 public:
  explicit Tracer(bool on = false) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  /// Opens a span and returns its index (-1 when disabled).
  std::int64_t begin(const char* name, std::uint64_t id,
                     std::int64_t parent = -1);
  void end(std::int64_t span);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Writes every tracer's spans as one Chrome trace-event file (one
/// track per tracer). Returns false on I/O failure.
bool write_spans(const std::string& path,
                 const std::vector<std::pair<std::string, const Tracer*>>& tracks);

/// Deterministic 64-bit generator (splitmix64) for seeded inputs.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

}  // namespace perfbench
