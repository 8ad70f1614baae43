#include "core/ompx_host.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "rewrite/analyze.h"
#include "serve/serve.h"
#include "simt/boundary.h"
#include "simt/device.h"
#include "simt/profiler.h"
#include "simt/stream.h"
#include "simt/memory.h"

namespace ompx {

using simt::sync_for_host_op;

void* malloc_on(simt::Device& dev, std::size_t bytes) {
  dev.check_not_lost("ompx malloc");
  return dev.memory().allocate(bytes);
}

void free_on(simt::Device& dev, void* ptr) {
  // Route to the owning device: freeing through the wrong current
  // device must not report "not a device pointer" (the original
  // single-device-registry bug). Unresolved pointers fall through to
  // `dev`, whose registry produces the invalid-free diagnostic.
  simt::Device* owner = simt::resolve_device(ptr);
  simt::free_plain("ompx_free", "ompx_free_async",
                   owner != nullptr ? *owner : dev, ptr);
}

void memcpy_on(simt::Device& dev, void* dst, const void* src,
               std::size_t bytes) {
  // Resolve each endpoint against the whole registry, not just `dev`:
  // classifying a copy by a single device's registry misreads another
  // device's pointer as a host pointer (wrong direction, no transfer
  // accounting, memcheck false negatives).
  simt::Device* dst_dev = simt::resolve_device(dst);
  simt::Device* src_dev = simt::resolve_device(src);
  if (dst_dev != nullptr) dst_dev->check_not_lost("ompx memcpy");
  if (src_dev != nullptr) src_dev->check_not_lost("ompx memcpy");
  if (dst_dev == nullptr && src_dev == nullptr)
    dev.check_not_lost("ompx memcpy");
  if (dst_dev != nullptr) sync_for_host_op(*dst_dev);
  if (src_dev != nullptr && src_dev != dst_dev) sync_for_host_op(*src_dev);
  if (dst_dev == nullptr && src_dev == nullptr) sync_for_host_op(dev);
  if (dst_dev != nullptr && src_dev != nullptr) {
    // Same device: ordinary D2D. Two devices: a peer copy, costed with
    // the peer link (or host staging) and accounted on both devices.
    simt::peer_copy(*dst_dev, dst, *src_dev, src, bytes);
    return;
  }
  simt::CopyKind kind;
  simt::Device* owner;
  if (dst_dev != nullptr) {
    kind = simt::CopyKind::kHostToDevice;
    owner = dst_dev;
  } else if (src_dev != nullptr) {
    kind = simt::CopyKind::kDeviceToHost;
    owner = src_dev;
  } else {
    kind = simt::CopyKind::kHostToHost;
    owner = &dev;
  }
  owner->memory().copy(dst, src, bytes, kind);
  if (kind != simt::CopyKind::kHostToHost) owner->add_transfer(bytes);
}

void memset_on(simt::Device& dev, void* ptr, int value, std::size_t bytes) {
  simt::Device* owner = simt::resolve_device(ptr);
  simt::Device& target = owner != nullptr ? *owner : dev;
  target.check_not_lost("ompx memset");
  sync_for_host_op(target);
  target.memory().set(ptr, value, bytes);
}

double memcpy_peer(simt::Device& dst_dev, void* dst, simt::Device& src_dev,
                   const void* src, std::size_t bytes) {
  return simt::peer_copy(dst_dev, dst, src_dev, src, bytes);
}

void device_synchronize(simt::Device& dev) { dev.synchronize(); }

bool is_device_ptr(simt::Device& dev, const void* ptr) {
  return dev.memory().contains(ptr);
}

Profiler::Profiler(std::string dump_path) : dump_path_(std::move(dump_path)) {
  start();
}

Profiler::~Profiler() {
  stop();
  if (!dump_path_.empty()) dump(dump_path_);
}

void Profiler::start() { simt::Profiler::instance().start(); }
void Profiler::stop() { simt::Profiler::instance().stop(); }
bool Profiler::enabled() { return simt::Profiler::instance().enabled(); }
void Profiler::reset() { simt::Profiler::instance().reset(); }

simt::ProfilerCounters Profiler::counters() {
  return simt::Profiler::instance().counters();
}

std::string Profiler::trace_json() {
  return simt::Profiler::instance().chrome_trace_json();
}

bool Profiler::dump(const std::string& path) {
  return simt::Profiler::instance().dump_chrome_trace(path);
}

}  // namespace ompx

namespace {

thread_local ompx_result_t t_last_result = OMPX_SUCCESS;
thread_local std::string t_last_detail;

ompx_result_t record_result(ompx_result_t r, const char* what) {
  t_last_result = r;
  t_last_detail = (r == OMPX_SUCCESS || what == nullptr) ? "" : what;
  return r;
}

/// The ompx code for each simt::ErrorClass: this API's row of the one
/// error contract.
constexpr ompx_result_t kResultFor[] = {
    OMPX_ERROR_DEVICE_LOST,        // kDeviceLost
    OMPX_ERROR_TIMEOUT,            // kTimeout
    OMPX_ERROR_ADMISSION,          // kAdmission
    OMPX_ERROR_OUT_OF_MEMORY,      // kDeviceOOM
    OMPX_ERROR_MEMORY_ALLOCATION,  // kHostAlloc
    OMPX_ERROR_INVALID_DEVICE,     // kInvalidDevice
    OMPX_ERROR_INVALID_VALUE,      // kInvalidValue
    OMPX_ERROR_LAUNCH_FAILURE,     // kLaunchFailure
    OMPX_ERROR_LAUNCH_FAILURE,     // kOtherException
    OMPX_ERROR_UNKNOWN,            // kNonStandard
};
static_assert(std::size(kResultFor) == simt::kErrorClassCount);

/// Runs `fn` with every escaping exception translated into an
/// ompx_result_t: nothing ever unwinds across the extern "C" boundary.
template <typename Fn>
ompx_result_t guarded(Fn&& fn) {
  try {
    fn();
    return record_result(OMPX_SUCCESS, nullptr);
  } catch (const ompx::result_error& e) {
    // A nested OMPX_REQUIRE (host callback re-entering the API); keep
    // the original code.
    return record_result(e.result(), e.what());
  } catch (...) {
    const simt::ClassifiedError c = simt::classify_exception();
    return record_result(kResultFor[static_cast<std::size_t>(c.cls)],
                         c.detail.c_str());
  }
}

using simt::live_event;
using simt::live_graph;
using simt::live_stream;
using simt::registry_device;

}  // namespace

namespace ompx {

namespace detail {
void throw_result_error(const char* expr, ompx_result_t result) {
  std::string msg = std::string(expr) + " -> " + ompx_result_string(result);
  const char* detail = ompx_last_result_detail();
  if (detail != nullptr && detail[0] != '\0')
    msg += std::string(" (") + detail + ")";
  throw result_error(result, msg);
}
}  // namespace detail

FaultScope::FaultScope(const std::string& spec)
    : had_previous_(simt::FaultInjector::instance().active()),
      previous_spec_(simt::FaultInjector::instance().spec()) {
  simt::FaultInjector::instance().enable(spec);
}

FaultScope::~FaultScope() {
  if (had_previous_)
    simt::FaultInjector::instance().enable(previous_spec_);
  else
    simt::FaultInjector::instance().disable();
}

}  // namespace ompx

extern "C" {

const char* ompx_result_string(ompx_result_t result) {
  switch (result) {
    case OMPX_SUCCESS: return "success";
    case OMPX_ERROR_INVALID_VALUE: return "invalid value";
    case OMPX_ERROR_MEMORY_ALLOCATION: return "memory allocation failure";
    case OMPX_ERROR_INVALID_DEVICE: return "invalid device index";
    case OMPX_ERROR_LAUNCH_FAILURE: return "launch failure";
    case OMPX_ERROR_OUT_OF_MEMORY: return "device out of memory";
    case OMPX_ERROR_DEVICE_LOST: return "device lost";
    case OMPX_ERROR_TIMEOUT: return "watchdog timeout";
    case OMPX_ERROR_ADMISSION: return "admission rejected";
    case OMPX_ERROR_UNKNOWN: return "unknown error";
  }
  return "unrecognized ompx_result_t";
}

ompx_result_t ompx_get_last_result(void) {
  const ompx_result_t r = t_last_result;
  t_last_result = OMPX_SUCCESS;
  return r;
}

ompx_result_t ompx_peek_last_result(void) { return t_last_result; }

const char* ompx_last_result_detail(void) { return t_last_detail.c_str(); }

void* ompx_malloc(std::size_t bytes) {
  void* p = nullptr;
  guarded([&] { p = ompx::malloc_on(ompx::default_device(), bytes); });
  return p;
}

ompx_result_t ompx_free(void* ptr) {
  return guarded([&] { ompx::free_on(ompx::default_device(), ptr); });
}

ompx_result_t ompx_memcpy(void* dst, const void* src, std::size_t bytes) {
  return guarded(
      [&] { ompx::memcpy_on(ompx::default_device(), dst, src, bytes); });
}

ompx_result_t ompx_memset(void* ptr, int value, std::size_t bytes) {
  return guarded(
      [&] { ompx::memset_on(ompx::default_device(), ptr, value, bytes); });
}

ompx_result_t ompx_device_synchronize() {
  return guarded([&] { ompx::device_synchronize(ompx::default_device()); });
}

int ompx_get_num_devices() {
  return static_cast<int>(simt::device_registry().size());
}

int ompx_get_device() { return ompx::default_device_index(); }

ompx_result_t ompx_set_device(int index) {
  return guarded([&] {
    ompx::set_default_device(registry_device("ompx_set_device", index));
  });
}

ompx_result_t ompx_memcpy_peer(void* dst, int dst_device, const void* src,
                               int src_device, std::size_t bytes) {
  return guarded([&] {
    simt::Device& ddev = registry_device("ompx_memcpy_peer", dst_device);
    simt::Device& sdev = registry_device("ompx_memcpy_peer", src_device);
    simt::peer_copy(ddev, dst, sdev, src, bytes);
  });
}

ompx_result_t ompx_device_enable_peer_access(int peer_device,
                                             unsigned int flags) {
  const char* who = "ompx_device_enable_peer_access";
  return guarded([&] {
    if (flags != 0)
      throw std::invalid_argument(std::string(who) + ": flags must be 0");
    ompx::default_device().enable_peer_access(
        registry_device(who, peer_device));
  });
}

ompx_result_t ompx_device_disable_peer_access(int peer_device) {
  return guarded([&] {
    ompx::default_device().disable_peer_access(
        registry_device("ompx_device_disable_peer_access", peer_device));
  });
}

ompx_result_t ompx_device_can_access_peer(int* can_access, int device,
                                          int peer_device) {
  const char* who = "ompx_device_can_access_peer";
  return guarded([&] {
    if (can_access == nullptr)
      throw std::invalid_argument(std::string(who) + ": null result pointer");
    simt::Device& dev = registry_device(who, device);
    simt::Device& peer = registry_device(who, peer_device);
    // Every simulated device can reach every other one (single process);
    // a device is not its own peer, as in CUDA.
    *can_access = &dev != &peer ? 1 : 0;
  });
}

ompx_stream_t ompx_stream_create() {
  void* s = nullptr;
  guarded([&] { s = ompx::default_device().create_stream(); });
  return s;
}

ompx_result_t ompx_stream_destroy(ompx_stream_t stream) {
  if (stream == nullptr) return record_result(OMPX_SUCCESS, nullptr);
  return guarded([&] {
    simt::Stream& s = live_stream("ompx_stream_destroy", stream);
    s.device().destroy_stream(&s);
  });
}

ompx_result_t ompx_stream_synchronize(ompx_stream_t stream) {
  return guarded(
      [&] { live_stream("ompx_stream_synchronize", stream).synchronize(); });
}

ompx_result_t ompx_memcpy_async(void* dst, const void* src, std::size_t bytes,
                                ompx_stream_t stream) {
  return guarded([&] {
    simt::Stream& s = live_stream("ompx_memcpy_async", stream);
    // Direction inference is registry-wide, like ompx_memcpy. A true
    // cross-device pair cannot be expressed as a single-stream op;
    // execute it as a synchronous peer copy ordered after the stream's
    // pending work (the CUDA fallback for non-peer async copies is
    // also synchronous staging).
    simt::Device* dst_dev = simt::resolve_device(dst);
    simt::Device* src_dev = simt::resolve_device(src);
    if (dst_dev != nullptr && src_dev != nullptr && dst_dev != src_dev) {
      s.synchronize();
      simt::peer_copy(*dst_dev, dst, *src_dev, src, bytes);
      return;
    }
    simt::CopyKind kind;
    if (dst_dev != nullptr && src_dev != nullptr)
      kind = simt::CopyKind::kDeviceToDevice;
    else if (dst_dev != nullptr)
      kind = simt::CopyKind::kHostToDevice;
    else if (src_dev != nullptr)
      kind = simt::CopyKind::kDeviceToHost;
    else
      kind = simt::CopyKind::kHostToHost;
    s.memcpy_async(dst, src, bytes, kind);
  });
}

ompx_result_t ompx_memset_async(void* ptr, int value, std::size_t bytes,
                                ompx_stream_t stream) {
  return guarded([&] {
    live_stream("ompx_memset_async", stream).memset_async(ptr, value, bytes);
  });
}

void* ompx_malloc_async(std::size_t bytes, ompx_stream_t stream) {
  void* p = nullptr;
  guarded([&] {
    p = live_stream("ompx_malloc_async", stream).malloc_async(bytes);
  });
  return p;
}

ompx_result_t ompx_free_async(void* ptr, ompx_stream_t stream) {
  return guarded(
      [&] { live_stream("ompx_free_async", stream).free_async(ptr); });
}

ompx_result_t ompx_mempool_get_stats(int device, ompx_mempool_stats_t* stats) {
  return guarded([&] {
    if (stats == nullptr)
      throw std::invalid_argument("ompx_mempool_get_stats: null out pointer");
    const simt::MemPoolStats s =
        registry_device("ompx_mempool_get_stats", device).mem_pool().stats();
    stats->reuse_hits = s.reuse_hits;
    stats->misses = s.misses;
    stats->frees = s.frees;
    stats->bytes_reused = s.bytes_reused;
    stats->pooled_blocks = s.pooled_blocks;
    stats->pooled_bytes = s.pooled_bytes;
    stats->reclaimed_blocks = s.reclaimed_blocks;
    stats->reclaimed_bytes = s.reclaimed_bytes;
  });
}

ompx_result_t ompx_mempool_trim(int device) {
  return guarded([&] {
    simt::Device& dev = registry_device("ompx_mempool_trim", device);
    // Quiesce first so no pending pooled op races the deallocation.
    dev.synchronize();
    dev.mem_pool().trim();
  });
}

/* ------------------------------------------------ serving (MPS-style) */

namespace {

serve::ClientContext& live_client(const char* who, ompx_client_t client) {
  return serve::Server::instance().live_client(who, client);
}

/// The launch a C entry point describes; a null extent reads as 1x1x1.
simt::LaunchParams c_launch_params(const unsigned grid[3],
                                   const unsigned block[3], const char* name) {
  simt::LaunchParams p;
  p.grid = grid != nullptr ? simt::Dim3{grid[0], grid[1], grid[2]}
                           : simt::Dim3{1, 1, 1};
  p.block = block != nullptr ? simt::Dim3{block[0], block[1], block[2]}
                             : simt::Dim3{1, 1, 1};
  p.name = name;
  return p;
}

}  // namespace

ompx_client_t ompx_client_create(int device,
                                 const ompx_client_limits_t* limits) {
  serve::ClientLimits l;
  if (limits != nullptr) {
    l.memory_quota_bytes = limits->memory_quota_bytes;
    l.max_pending = limits->max_pending;
    l.priority = limits->priority;
    l.weight = limits->weight;
  }
  void* out = nullptr;
  guarded([&] {
    simt::Device* dev = device >= 0
                            ? &registry_device("ompx_client_create", device)
                            : nullptr;
    out = serve::Server::instance().create_client(dev, l);
  });
  return out;
}

ompx_result_t ompx_client_destroy(ompx_client_t client) {
  return guarded([&] {
    serve::Server::instance().destroy_client(
        &live_client("ompx_client_destroy", client));
  });
}

void* ompx_client_malloc(ompx_client_t client, std::size_t bytes) {
  void* p = nullptr;
  guarded([&] { p = live_client("ompx_client_malloc", client).malloc(bytes); });
  return p;
}

ompx_result_t ompx_client_free(ompx_client_t client, void* ptr) {
  return guarded([&] { live_client("ompx_client_free", client).free(ptr); });
}

ompx_result_t ompx_client_launch_kernel(ompx_client_t client,
                                        void (*fn)(void*), void* arg,
                                        const unsigned grid[3],
                                        const unsigned block[3]) {
  return guarded([&] {
    serve::ClientContext& c = live_client("ompx_client_launch_kernel", client);
    if (fn == nullptr)
      throw std::invalid_argument(
          "ompx_client_launch_kernel: null kernel function");
    c.launch(c_launch_params(grid, block, "ompx_client_launch"),
             [fn, arg] { fn(arg); });
  });
}

ompx_result_t ompx_client_launch_async(ompx_client_t client,
                                       void (*fn)(void*), void* arg,
                                       const unsigned grid[3],
                                       const unsigned block[3]) {
  return guarded([&] {
    serve::ClientContext& c = live_client("ompx_client_launch_async", client);
    if (fn == nullptr)
      throw std::invalid_argument(
          "ompx_client_launch_async: null kernel function");
    c.submit(c_launch_params(grid, block, "ompx_client_launch"),
             [fn, arg] { fn(arg); });
  });
}

ompx_result_t ompx_client_synchronize(ompx_client_t client) {
  return guarded(
      [&] { live_client("ompx_client_synchronize", client).synchronize(); });
}

ompx_result_t ompx_client_get_stats(ompx_client_t client,
                                    ompx_client_stats_t* stats) {
  return guarded([&] {
    serve::ClientContext& c = live_client("ompx_client_get_stats", client);
    if (stats == nullptr)
      throw std::invalid_argument("ompx_client_get_stats: null out pointer");
    const serve::ClientStats s = c.stats();
    stats->launches = s.launches;
    stats->launches_failed = s.launches_failed;
    stats->blocks_executed = s.blocks_executed;
    stats->quanta = s.quanta;
    stats->allocs = s.allocs;
    stats->frees = s.frees;
    stats->bytes_live = s.bytes_live;
    stats->bytes_peak = s.bytes_peak;
    stats->quota_rejections = s.quota_rejections;
    stats->admission_rejections = s.admission_rejections;
    stats->timeouts = s.timeouts;
    stats->device_losses = s.device_losses;
  });
}

ompx_result_t ompx_serve_set_quantum(unsigned blocks) {
  // Floored at one block by the server: a zero quantum could never
  // make progress.
  return guarded(
      [&] { serve::Server::instance().set_quantum_blocks(blocks); });
}

unsigned ompx_serve_quantum(void) {
  return serve::Server::instance().quantum_blocks();
}

ompx_result_t ompx_stream_begin_capture(ompx_stream_t stream) {
  return guarded([&] {
    live_stream("ompx_stream_begin_capture", stream).begin_capture();
  });
}

ompx_result_t ompx_stream_end_capture(ompx_stream_t stream,
                                      ompx_graph_t* graph) {
  return guarded([&] {
    simt::Stream& s = live_stream("ompx_stream_end_capture", stream);
    if (graph == nullptr) {
      // End the capture anyway (discarding it) so the stream is usable,
      // then report the bad out-param.
      if (s.capturing()) s.end_capture();
      throw std::invalid_argument(
          "ompx_stream_end_capture: null graph out pointer");
    }
    *graph = s.end_capture().release();
  });
}

int ompx_stream_is_capturing(ompx_stream_t stream) {
  if (stream == nullptr || !simt::stream_alive(static_cast<simt::Stream*>(stream)))
    return 0;
  int out = 0;
  guarded([&] {
    out = static_cast<simt::Stream*>(stream)->capturing() ? 1 : 0;
  });
  return out;
}

ompx_result_t ompx_graph_instantiate(ompx_graph_t graph) {
  return guarded(
      [&] { live_graph("ompx_graph_instantiate", graph).instantiate(); });
}

ompx_result_t ompx_graph_launch(ompx_graph_t graph, ompx_stream_t stream) {
  return guarded([&] {
    simt::Graph& g = live_graph("ompx_graph_launch", graph);
    live_stream("ompx_graph_launch", stream).launch_graph(g);
  });
}

ompx_result_t ompx_graph_destroy(ompx_graph_t graph) {
  return guarded([&] {
    if (graph == nullptr) return;
    simt::destroy_graph(static_cast<simt::Graph*>(graph));
  });
}

ompx_result_t ompx_graph_node_count(ompx_graph_t graph, std::size_t* count) {
  return guarded([&] {
    if (count == nullptr)
      throw std::invalid_argument("ompx_graph_node_count: null out pointer");
    *count = live_graph("ompx_graph_node_count", graph).node_count();
  });
}

ompx_result_t ompx_graph_get_nodes(ompx_graph_t graph,
                                   ompx_graph_node_info_t* nodes,
                                   std::size_t capacity, std::size_t* written) {
  return guarded([&] {
    if (written == nullptr || (nodes == nullptr && capacity != 0))
      throw std::invalid_argument("ompx_graph_get_nodes: null out pointer");
    const std::vector<simt::Graph::NodeInfo> infos =
        live_graph("ompx_graph_get_nodes", graph).nodes();
    const std::size_t n = std::min(capacity, infos.size());
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i] = ompx_graph_node_info_t{};
      std::strncpy(nodes[i].kind, infos[i].kind.c_str(),
                   sizeof nodes[i].kind - 1);
      std::strncpy(nodes[i].name, infos[i].name.c_str(),
                   sizeof nodes[i].name - 1);
      nodes[i].bytes = infos[i].bytes;
    }
    *written = n;
  });
}

ompx_result_t ompx_launch_kernel(void (*fn)(void*), void* arg,
                                 const unsigned grid[3],
                                 const unsigned block[3],
                                 ompx_stream_t stream) {
  return guarded([&] {
    if (fn == nullptr)
      throw std::invalid_argument("ompx_launch_kernel: null kernel function");
    simt::Stream& s = stream != nullptr
                          ? live_stream("ompx_launch_kernel", stream)
                          : ompx::default_device().default_stream();
    s.launch(c_launch_params(grid, block, "ompx_launch_kernel"),
             [fn, arg] { fn(arg); });
  });
}

ompx_event_t ompx_event_create() {
  void* e = nullptr;
  guarded([&] { e = ompx::default_device().create_event(); });
  return e;
}

ompx_result_t ompx_event_destroy(ompx_event_t event) {
  if (event == nullptr) return record_result(OMPX_SUCCESS, nullptr);
  return guarded([&] {
    simt::Event& e = live_event("ompx_event_destroy", event);
    e.device().destroy_event(&e);
  });
}

ompx_result_t ompx_event_record(ompx_event_t event, ompx_stream_t stream) {
  return guarded([&] {
    simt::Event& e = live_event("ompx_event_record", event);
    live_stream("ompx_event_record", stream).record(e);
  });
}

ompx_result_t ompx_event_synchronize(ompx_event_t event) {
  return guarded(
      [&] { live_event("ompx_event_synchronize", event).synchronize(); });
}

ompx_result_t ompx_stream_wait_event(ompx_stream_t stream,
                                     ompx_event_t event) {
  return guarded([&] {
    simt::Stream& s = live_stream("ompx_stream_wait_event", stream);
    s.wait(live_event("ompx_stream_wait_event", event));
  });
}

float ompx_event_elapsed_ms(ompx_event_t start, ompx_event_t stop) {
  float out = -1.0f;
  guarded([&] {
    const double t0 = live_event("ompx_event_elapsed_ms", start).modeled_ms();
    const double t1 = live_event("ompx_event_elapsed_ms", stop).modeled_ms();
    out = static_cast<float>(t1 - t0);
  });
  return out;
}

void ompx_profiler_start(void) { ompx::Profiler::start(); }
void ompx_profiler_stop(void) { ompx::Profiler::stop(); }
int ompx_profiler_enabled(void) { return ompx::Profiler::enabled() ? 1 : 0; }
void ompx_profiler_reset(void) { ompx::Profiler::reset(); }

int ompx_profiler_dump(const char* path) {
  if (path == nullptr) return -1;
  return ompx::Profiler::dump(path) ? 0 : -1;
}

int ompx_get_last_launch_info(ompx_launch_info_t* info) {
  if (info == nullptr) return -1;
  simt::LaunchRecord rec;
  if (guarded([&] { rec = ompx::launch_record(); }) != OMPX_SUCCESS)
    return -1;  // nothing launched yet
  *info = ompx_launch_info_t{};
  std::strncpy(info->name, rec.name.c_str(), sizeof info->name - 1);
  info->grid[0] = rec.grid.x;
  info->grid[1] = rec.grid.y;
  info->grid[2] = rec.grid.z;
  info->block[0] = rec.block.x;
  info->block[1] = rec.block.y;
  info->block[2] = rec.block.z;
  info->modeled_total_ms = rec.time.total_ms;
  info->modeled_compute_ms = rec.time.compute_ms;
  info->modeled_memory_ms = rec.time.memory_ms;
  info->modeled_overhead_ms = rec.time.overhead_ms;
  info->occupancy = rec.time.occupancy;
  info->wall_ms = rec.wall_ms;
  info->blocks = rec.stats.blocks;
  info->threads = rec.stats.threads;
  info->block_barriers = rec.stats.block_barriers;
  info->warp_collectives = rec.stats.warp_collectives;
  info->atomics = rec.stats.atomics;
  info->parallel_handshakes = rec.stats.parallel_handshakes;
  info->globalized_bytes = rec.stats.globalized_bytes;
  std::strncpy(info->exec_mode, rec.exec_mode.c_str(),
               sizeof info->exec_mode - 1);
  info->lane_loops = rec.stats.sched_lane_loops;
  return 0;
}

ompx_result_t ompx_set_exec_hint(const char* kernel, int convergent,
                                 int needs_fibers) {
  return guarded([&] {
    if (kernel == nullptr)
      throw std::invalid_argument("ompx_set_exec_hint: null kernel name");
    simt::set_exec_hint(kernel, {convergent != 0, needs_fibers != 0});
  });
}

ompx_result_t ompx_set_exec_hint_ex(const char* kernel, int convergent,
                                    int needs_fibers, int atomics_ok) {
  return guarded([&] {
    if (kernel == nullptr)
      throw std::invalid_argument("ompx_set_exec_hint_ex: null kernel name");
    simt::ExecHint hint;
    hint.convergent = convergent != 0;
    hint.needs_fibers = needs_fibers != 0;
    hint.atomics_ok = atomics_ok != 0;
    simt::set_exec_hint(kernel, hint);
  });
}

ompx_result_t ompx_register_exec_hints(const char* source, int* registered) {
  return guarded([&] {
    if (source == nullptr)
      throw std::invalid_argument("ompx_register_exec_hints: null source");
    const int n = rewrite::register_exec_hints(source);
    if (registered != nullptr) *registered = n;
  });
}

void ompx_check_failed(const char* expr, const char* file, int line,
                       ompx_result_t result) {
  std::fprintf(stderr, "OMPX_CHECK failed at %s:%d: %s -> %s (%d)\n", file,
               line, expr, ompx_result_string(result),
               static_cast<int>(result));
  std::abort();
}

ompx_result_t ompx_fault_enable(const char* spec) {
  return guarded([&] {
    if (spec == nullptr) {
      simt::FaultInjector::instance().disable();
      return;
    }
    simt::FaultInjector::instance().enable(spec);
  });
}

ompx_result_t ompx_fault_disable(void) {
  return guarded([&] { simt::FaultInjector::instance().disable(); });
}

int ompx_fault_active(void) {
  return simt::FaultInjector::instance().active() ? 1 : 0;
}

unsigned long long ompx_fault_injected_count(void) {
  return simt::FaultInjector::instance().injected_count();
}

ompx_result_t ompx_device_reset(int device) {
  return guarded(
      [&] { registry_device("ompx_device_reset", device).reset(); });
}

ompx_result_t ompx_set_watchdog_ms(double ms) {
  return guarded([&] { simt::set_watchdog_ms(ms); });
}

double ompx_get_watchdog_ms(void) { return simt::watchdog_ms(); }

ompx_result_t ompx_set_exec_policy(const char* policy) {
  return guarded([&] {
    if (policy == nullptr)
      throw std::invalid_argument("ompx_set_exec_policy: null policy");
    const std::string p = policy;
    if (p == "fiber") simt::set_exec_policy(simt::ExecPolicy::kFiber);
    else if (p == "convergent")
      simt::set_exec_policy(simt::ExecPolicy::kConvergent);
    else if (p == "auto") simt::set_exec_policy(simt::ExecPolicy::kAuto);
    else
      throw std::invalid_argument(
          "ompx_set_exec_policy: expected fiber|convergent|auto, got '" + p +
          "'");
  });
}

}  // extern "C"
