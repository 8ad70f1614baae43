#include "simt/fault.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace simt {

namespace fault_detail {
constinit std::atomic<std::uint32_t> g_armed{0};
}  // namespace fault_detail

namespace {

constexpr std::size_t kSiteCount = static_cast<std::size_t>(FaultSite::kCount);

const char* const kSiteNames[kSiteCount] = {
    "oom", "host_oom", "stall", "peer", "graph", "device_lost",
};

/// splitmix64 — the same mixer the apps use for deterministic data.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform [0,1) from (seed, site, call#).
double prob01(std::uint64_t seed, FaultSite site, std::uint64_t call) {
  const std::uint64_t h =
      mix64(seed ^ mix64(static_cast<std::uint64_t>(site) + 1) ^ mix64(call));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("malformed fault spec '" + spec + "': " + why);
}

std::uint64_t parse_u64(const std::string& spec, const std::string& v) {
  unsigned long long n = 0;
  std::size_t pos = 0;
  try {
    n = std::stoull(v, &pos);
  } catch (const std::exception&) {
    bad_spec(spec, "expected an integer, got '" + v + "'");
  }
  if (pos != v.size()) bad_spec(spec, "trailing characters in '" + v + "'");
  return n;
}

double parse_f64(const std::string& spec, const std::string& v) {
  double f = 0.0;
  std::size_t pos = 0;
  try {
    f = std::stod(v, &pos);
  } catch (const std::exception&) {
    bad_spec(spec, "expected a number, got '" + v + "'");
  }
  if (pos != v.size()) bad_spec(spec, "trailing characters in '" + v + "'");
  return f;
}

}  // namespace

ClassifiedError classify_exception(std::exception_ptr e) {
  try {
    std::rethrow_exception(e);
  } catch (const DeviceLostError& x) {
    return {ErrorClass::kDeviceLost, x.what()};
  } catch (const TimeoutError& x) {
    return {ErrorClass::kTimeout, x.what()};
  } catch (const AdmissionError& x) {
    return {ErrorClass::kAdmission, x.what()};
  } catch (const DeviceOOMError& x) {
    return {ErrorClass::kDeviceOOM, x.what()};
  } catch (const std::bad_alloc& x) {
    return {ErrorClass::kHostAlloc, x.what()};
  } catch (const InvalidDeviceError& x) {
    return {ErrorClass::kInvalidDevice, x.what()};
  } catch (const std::invalid_argument& x) {
    return {ErrorClass::kInvalidValue, x.what()};
  } catch (const std::out_of_range& x) {
    return {ErrorClass::kInvalidValue, x.what()};
  } catch (const std::logic_error& x) {
    return {ErrorClass::kLaunchFailure, x.what()};
  } catch (const std::runtime_error& x) {
    return {ErrorClass::kLaunchFailure, x.what()};
  } catch (const std::exception& x) {
    return {ErrorClass::kOtherException, x.what()};
  } catch (...) {
    return {ErrorClass::kNonStandard, "non-standard exception"};
  }
}

const char* fault_site_name(FaultSite site) {
  const auto i = static_cast<std::size_t>(site);
  return i < kSiteCount ? kSiteNames[i] : "?";
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector* injector = new FaultInjector;  // leaked on purpose
  return *injector;
}

void FaultInjector::enable(const std::string& spec) {
  // Parse into a scratch rule set first so a malformed spec leaves the
  // previous configuration armed and untouched.
  Rule parsed[kSiteCount];
  std::size_t start = 0;
  bool any = false;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(start, end - start);
    start = end + 1;
    if (clause.empty()) continue;

    const std::size_t colon = clause.find(':');
    const std::string site_name = clause.substr(0, colon);
    int site = -1;
    for (std::size_t i = 0; i < kSiteCount; ++i)
      if (site_name == kSiteNames[i]) site = static_cast<int>(i);
    if (site < 0) bad_spec(spec, "unknown site '" + site_name + "'");

    Rule& r = parsed[site];
    r.armed = true;
    any = true;
    if (colon == std::string::npos) continue;  // bare site: fire always

    std::string args = clause.substr(colon + 1);
    std::size_t astart = 0;
    while (astart <= args.size()) {
      std::size_t aend = args.find(',', astart);
      if (aend == std::string::npos) aend = args.size();
      const std::string arg = args.substr(astart, aend - astart);
      astart = aend + 1;
      if (arg.empty()) continue;
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos)
        bad_spec(spec, "argument '" + arg + "' is not key=value");
      const std::string key = arg.substr(0, eq);
      const std::string val = arg.substr(eq + 1);
      if (key == "after") {
        r.trigger = Trigger::kAfter;
        r.n = parse_u64(spec, val);
      } else if (key == "every") {
        r.trigger = Trigger::kEvery;
        r.n = parse_u64(spec, val);
        if (r.n == 0) bad_spec(spec, "every=0 never fires");
      } else if (key == "p") {
        r.trigger = Trigger::kProb;
        r.p = parse_f64(spec, val);
        if (r.p < 0.0 || r.p > 1.0)
          bad_spec(spec, "probability must be in [0,1]");
      } else if (key == "seed") {
        r.seed = parse_u64(spec, val);
      } else if (key == "ms") {
        // Clamp so a fuzzer-supplied spec cannot stall a worker for
        // longer than a second per op.
        r.ms = std::clamp(parse_f64(spec, val), 0.0, 1000.0);
      } else {
        bad_spec(spec, "unknown argument '" + key + "'");
      }
    }
  }
  if (!any) bad_spec(spec, "no sites armed");

  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < kSiteCount; ++i) rules_[i] = parsed[i];
  spec_ = spec;
  fired_total_ = 0;
  fault_detail::g_armed.store(1, std::memory_order_release);
}

void FaultInjector::disable() {
  std::lock_guard<std::mutex> lock(mu_);
  fault_detail::g_armed.store(0, std::memory_order_release);
  for (Rule& r : rules_) r = Rule{};
  spec_.clear();
}

bool FaultInjector::active() const {
  return fault_detail::g_armed.load(std::memory_order_acquire) != 0;
}

std::string FaultInjector::spec() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spec_;
}

bool FaultInjector::should_fire(FaultSite site) {
  std::lock_guard<std::mutex> lock(mu_);
  Rule& r = rules_[static_cast<std::size_t>(site)];
  if (!r.armed) return false;
  r.calls++;
  bool fire = false;
  switch (r.trigger) {
    case Trigger::kAlways:
      fire = true;
      break;
    case Trigger::kAfter:
      if (!r.exhausted && r.calls > r.n) {
        fire = true;
        r.exhausted = true;
      }
      break;
    case Trigger::kEvery:
      fire = r.calls % r.n == 0;
      break;
    case Trigger::kProb:
      fire = prob01(r.seed, site, r.calls) < r.p;
      break;
  }
  if (fire) {
    r.fired++;
    fired_total_++;
  }
  return fire;
}

double FaultInjector::stall_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_[static_cast<std::size_t>(FaultSite::kStreamStall)].ms;
}

std::uint64_t FaultInjector::injected_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_total_;
}

std::uint64_t FaultInjector::injected_count(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_[static_cast<std::size_t>(site)].fired;
}

void FaultInjector::reset_counters() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Rule& r : rules_) {
    r.calls = 0;
    r.fired = 0;
    r.exhausted = false;
  }
  fired_total_ = 0;
}

namespace {

/// OMPX_FAULT arms injection for the whole process at static init —
/// the hook the fault-matrix CI leg uses to run existing binaries
/// under injection without recompiling.
const bool g_env_armed = [] {
  const char* spec = std::getenv("OMPX_FAULT");
  if (spec == nullptr || spec[0] == '\0') return false;
  try {
    FaultInjector::instance().enable(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[simt] ignoring OMPX_FAULT: %s\n", e.what());
    return false;
  }
  return true;
}();

}  // namespace

}  // namespace simt
