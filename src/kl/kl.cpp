#include "kl/kl.h"

#include <iterator>
#include <stdexcept>
#include <string>

#include "rewrite/analyze.h"
#include "serve/serve.h"
#include "simt/boundary.h"

namespace kl {

namespace {

thread_local int t_device_index = 0;
thread_local klError t_last_error = klSuccess;
thread_local std::string t_last_detail;

klError record_error(klError e, const std::string& detail) {
  t_last_error = e;
  t_last_detail = detail;
  return e;
}

/// The kl code for each simt::ErrorClass: this API's row of the one
/// error contract.
constexpr klError kErrorFor[] = {
    klErrorDeviceLost,        // kDeviceLost
    klErrorTimeout,           // kTimeout
    klErrorAdmission,         // kAdmission
    klErrorMemoryAllocation,  // kDeviceOOM, like cudaErrorMemoryAllocation
    klErrorMemoryAllocation,  // kHostAlloc
    klErrorInvalidDevice,     // kInvalidDevice
    klErrorInvalidValue,      // kInvalidValue
    klErrorLaunchFailure,     // kLaunchFailure
    klErrorUnknown,           // kOtherException
    klErrorUnknown,           // kNonStandard
};
static_assert(std::size(kErrorFor) == simt::kErrorClassCount);

/// Converts engine exceptions into runtime error codes at the ABI
/// boundary, the way the CUDA runtime does; the last error is sticky.
template <typename F>
klError guarded(F&& f) {
  try {
    f();
    return klSuccess;
  } catch (...) {
    const simt::ClassifiedError c = simt::classify_exception();
    return record_error(kErrorFor[static_cast<std::size_t>(c.cls)], c.detail);
  }
}

using simt::live_event;
using simt::live_graph;
using simt::live_stream;
using simt::registry_device;
using simt::sync_for_host_op;

simt::CopyKind to_engine(klMemcpyKind k) {
  switch (k) {
    case klMemcpyHostToDevice: return simt::CopyKind::kHostToDevice;
    case klMemcpyDeviceToHost: return simt::CopyKind::kDeviceToHost;
    case klMemcpyDeviceToDevice: return simt::CopyKind::kDeviceToDevice;
    case klMemcpyHostToHost: return simt::CopyKind::kHostToHost;
  }
  return simt::CopyKind::kHostToHost;
}

}  // namespace

const char* klGetErrorString(klError e) {
  switch (e) {
    case klSuccess: return "klSuccess";
    case klErrorInvalidValue: return "klErrorInvalidValue";
    case klErrorMemoryAllocation: return "klErrorMemoryAllocation";
    case klErrorInvalidDevice: return "klErrorInvalidDevice";
    case klErrorLaunchFailure: return "klErrorLaunchFailure";
    case klErrorNotReady: return "klErrorNotReady";
    case klErrorDeviceLost: return "klErrorDeviceLost";
    case klErrorTimeout: return "klErrorTimeout";
    case klErrorAdmission: return "klErrorAdmission";
    case klErrorUnknown: return "klErrorUnknown";
  }
  return "klError(?)";
}

klError klGetLastError() {
  const klError e = t_last_error;
  t_last_error = klSuccess;
  return e;
}

klError klPeekAtLastError() { return t_last_error; }

const char* klGetLastErrorDetail() { return t_last_detail.c_str(); }

klError klSetDevice(int index) {
  return guarded([&] {
    registry_device("klSetDevice", index);
    t_device_index = index;
  });
}

klError klGetDevice(int* index) {
  if (index == nullptr) return record_error(klErrorInvalidValue, "null index");
  *index = t_device_index;
  return klSuccess;
}

klError klGetDeviceCount(int* count) {
  if (count == nullptr) return record_error(klErrorInvalidValue, "null count");
  *count = static_cast<int>(simt::device_registry().size());
  return klSuccess;
}

simt::Device& current_device() {
  return *simt::device_registry()[t_device_index];
}

namespace {

/// current_device() plus the lost check: every entry point that touches
/// device state directly fails with klErrorDeviceLost (via guarded)
/// instead of operating on a lost device.
simt::Device& usable_device(const char* who) {
  simt::Device& dev = current_device();
  dev.check_not_lost(who);
  return dev;
}

/// The stream behind a kl handle: null is the current device's default
/// stream (CUDA's legacy stream); anything else must be live.
simt::Stream& stream_or_default(const char* who, klStream_t s) {
  return s != nullptr ? live_stream(who, s) : current_device().default_stream();
}

}  // namespace

klError klMalloc(void** ptr, std::size_t bytes) {
  if (ptr == nullptr) return record_error(klErrorInvalidValue, "null ptr");
  *ptr = nullptr;  // defensive: never leave the out-param dangling
  return guarded(
      [&] { *ptr = usable_device("klMalloc").memory().allocate(bytes); });
}

klError klFree(void* ptr) {
  return guarded([&] {
    simt::free_plain("klFree", "klFreeAsync", usable_device("klFree"), ptr);
  });
}

klError klMemcpy(void* dst, const void* src, std::size_t bytes,
                 klMemcpyKind kind) {
  return guarded([&] {
    auto& dev = usable_device("klMemcpy");
    sync_for_host_op(dev);
    dev.memory().copy(dst, src, bytes, to_engine(kind));
    if (kind == klMemcpyHostToDevice || kind == klMemcpyDeviceToHost)
      dev.add_transfer(bytes);
  });
}

klError klMemcpyPeer(void* dst, int dst_device, const void* src,
                     int src_device, std::size_t bytes) {
  return guarded([&] {
    simt::Device& ddev = registry_device("klMemcpyPeer", dst_device);
    simt::Device& sdev = registry_device("klMemcpyPeer", src_device);
    sync_for_host_op(ddev);
    if (&sdev != &ddev) sync_for_host_op(sdev);
    simt::peer_copy(ddev, dst, sdev, src, bytes);
  });
}

klError klDeviceEnablePeerAccess(int peer_device, unsigned int flags) {
  if (flags != 0) return record_error(klErrorInvalidValue, "flags must be 0");
  return guarded([&] {
    current_device().enable_peer_access(
        registry_device("klDeviceEnablePeerAccess", peer_device));
  });
}

klError klDeviceDisablePeerAccess(int peer_device) {
  return guarded([&] {
    current_device().disable_peer_access(
        registry_device("klDeviceDisablePeerAccess", peer_device));
  });
}

klError klDeviceCanAccessPeer(int* can_access, int device, int peer_device) {
  if (can_access == nullptr)
    return record_error(klErrorInvalidValue, "null result pointer");
  return guarded([&] {
    simt::Device& dev = registry_device("klDeviceCanAccessPeer", device);
    simt::Device& peer = registry_device("klDeviceCanAccessPeer", peer_device);
    *can_access = &dev != &peer ? 1 : 0;
  });
}

klError klMemcpy2D(void* dst, std::size_t dpitch, const void* src,
                   std::size_t spitch, std::size_t width, std::size_t height,
                   klMemcpyKind kind) {
  return guarded([&] {
    auto& dev = usable_device("klMemcpy2D");
    sync_for_host_op(dev);
    const std::size_t payload =
        dev.memory().copy_2d(dst, dpitch, src, spitch, width, height,
                             to_engine(kind));
    if (kind == klMemcpyHostToDevice || kind == klMemcpyDeviceToHost)
      dev.add_transfer(payload);
  });
}

klError klMemset(void* ptr, int value, std::size_t bytes) {
  return guarded([&] {
    auto& dev = usable_device("klMemset");
    sync_for_host_op(dev);
    dev.memory().set(ptr, value, bytes);
  });
}

klError klStreamCreate(klStream_t* stream) {
  if (stream == nullptr) return record_error(klErrorInvalidValue, "null stream");
  *stream = nullptr;
  return guarded([&] { *stream = current_device().create_stream(); });
}

klError klStreamDestroy(klStream_t stream) {
  if (stream == nullptr) return klSuccess;
  return guarded([&] {
    simt::Stream& s = live_stream("klStreamDestroy", stream);
    s.device().destroy_stream(&s);
  });
}

klError klStreamSynchronize(klStream_t stream) {
  return guarded(
      [&] { stream_or_default("klStreamSynchronize", stream).synchronize(); });
}

klError klMemcpyAsync(void* dst, const void* src, std::size_t bytes,
                      klMemcpyKind kind, klStream_t stream) {
  return guarded([&] {
    stream_or_default("klMemcpyAsync", stream)
        .memcpy_async(dst, src, bytes, to_engine(kind));
  });
}

klError klMemsetAsync(void* ptr, int value, std::size_t bytes,
                      klStream_t stream) {
  return guarded([&] {
    stream_or_default("klMemsetAsync", stream).memset_async(ptr, value, bytes);
  });
}

klError klMallocAsync(void** ptr, std::size_t bytes, klStream_t stream) {
  if (ptr == nullptr) return record_error(klErrorInvalidValue, "null ptr");
  *ptr = nullptr;
  return guarded([&] {
    *ptr = stream_or_default("klMallocAsync", stream).malloc_async(bytes);
  });
}

klError klClientCreate(klClient_t* client, int device) {
  if (client == nullptr) return record_error(klErrorInvalidValue, "null out");
  *client = nullptr;
  return guarded([&] {
    simt::Device* dev =
        device >= 0 ? &registry_device("klClientCreate", device) : nullptr;
    *client = serve::Server::instance().create_client(dev);
  });
}

klError klClientDestroy(klClient_t client) {
  return guarded([&] {
    serve::Server& server = serve::Server::instance();
    server.destroy_client(&server.live_client("klClientDestroy", client));
  });
}

klError klFreeAsync(void* ptr, klStream_t stream) {
  return guarded(
      [&] { stream_or_default("klFreeAsync", stream).free_async(ptr); });
}

klError klStreamBeginCapture(klStream_t stream) {
  if (stream == nullptr)
    return record_error(klErrorInvalidValue,
                        "klStreamBeginCapture: the default stream cannot be "
                        "captured; pass a created stream");
  return guarded(
      [&] { live_stream("klStreamBeginCapture", stream).begin_capture(); });
}

klError klStreamEndCapture(klStream_t stream, klGraph_t* graph) {
  return guarded([&] {
    simt::Stream& s = live_stream("klStreamEndCapture", stream);
    if (graph == nullptr) {
      // End the capture anyway (discarding it) so the stream is usable.
      if (s.capturing()) s.end_capture();
      throw std::invalid_argument("klStreamEndCapture: null graph out pointer");
    }
    *graph = s.end_capture().release();
  });
}

klError klGraphInstantiate(klGraph_t graph) {
  return guarded(
      [&] { live_graph("klGraphInstantiate", graph).instantiate(); });
}

klError klGraphLaunch(klGraph_t graph, klStream_t stream) {
  return guarded([&] {
    simt::Graph& g = live_graph("klGraphLaunch", graph);
    simt::Stream& s = stream != nullptr ? live_stream("klGraphLaunch", stream)
                                        : g.device().default_stream();
    s.launch_graph(g);
  });
}

klError klGraphDestroy(klGraph_t graph) {
  if (graph == nullptr) return klSuccess;
  return guarded([&] { simt::destroy_graph(graph); });
}

klError klMallocConstant(void** ptr, std::size_t bytes) {
  if (ptr == nullptr) return record_error(klErrorInvalidValue, "null ptr");
  *ptr = nullptr;
  return guarded([&] {
    *ptr = usable_device("klMallocConstant").constant_memory().allocate(bytes);
  });
}

klError klMemcpyToSymbol(void* symbol, const void* src, std::size_t bytes) {
  return guarded([&] {
    auto& dev = usable_device("klMemcpyToSymbol");
    sync_for_host_op(dev);  // in-flight kernels read the old symbol value
    dev.constant_memory().copy(symbol, src, bytes,
                               simt::CopyKind::kHostToDevice);
    dev.add_transfer(bytes);
  });
}

klError klFreeConstant(void* ptr) {
  return guarded([&] {
    usable_device("klFreeConstant").constant_memory().deallocate(ptr);
  });
}

klError klEventCreate(klEvent_t* ev) {
  if (ev == nullptr) return record_error(klErrorInvalidValue, "null event");
  *ev = nullptr;
  return guarded([&] { *ev = current_device().create_event(); });
}

klError klEventDestroy(klEvent_t ev) {
  if (ev == nullptr) return klSuccess;
  return guarded([&] {
    simt::Event& e = live_event("klEventDestroy", ev);
    e.device().destroy_event(&e);
  });
}

klError klEventRecord(klEvent_t ev, klStream_t stream) {
  return guarded([&] {
    simt::Event& e = live_event("klEventRecord", ev);
    stream_or_default("klEventRecord", stream).record(e);
  });
}

klError klEventSynchronize(klEvent_t ev) {
  return guarded([&] { live_event("klEventSynchronize", ev).synchronize(); });
}

klError klEventElapsedTime(float* ms, klEvent_t start, klEvent_t stop) {
  if (ms == nullptr) return record_error(klErrorInvalidValue, "null argument");
  bool ready = false;
  const klError e = guarded([&] {
    simt::Event& e0 = live_event("klEventElapsedTime", start);
    simt::Event& e1 = live_event("klEventElapsedTime", stop);
    ready = e0.query() && e1.query();
    if (ready) *ms = static_cast<float>(e1.modeled_ms() - e0.modeled_ms());
  });
  if (e != klSuccess || ready) return e;
  return record_error(klErrorNotReady, "event not recorded");
}

klError klDeviceSynchronize() {
  return guarded([&] { current_device().synchronize(); });
}

klError klDeviceReset() {
  // Deliberately NOT lost-checked: this is the recovery path.
  return guarded([&] { current_device().reset(); });
}

klError klFaultInject(const char* spec) {
  return guarded([&] {
    if (spec == nullptr) {
      simt::FaultInjector::instance().disable();
      return;
    }
    simt::FaultInjector::instance().enable(spec);
  });
}

klError klSetWatchdogMs(double ms) {
  return guarded([&] { simt::set_watchdog_ms(ms); });
}

klError klProfilerStart() {
  return guarded([] { simt::Profiler::instance().start(); });
}

klError klProfilerStop() {
  return guarded([] { simt::Profiler::instance().stop(); });
}

klError klProfilerDump(const char* path) {
  if (path == nullptr) return record_error(klErrorInvalidValue, "null path");
  return guarded([&] {
    if (!simt::Profiler::instance().dump_chrome_trace(path))
      throw std::runtime_error(std::string("cannot write trace to ") + path);
  });
}

klError klSanEnable(const char* checks) {
  return guarded(
      [&] { simt::San::instance().enable(simt::San::parse_checks(checks)); });
}

klError klSanDisable() {
  return guarded([] { simt::San::instance().disable(); });
}

klError klSanReport(unsigned long long* errors) {
  return guarded([&] {
    const std::uint64_t n = simt::San::instance().print_report();
    if (errors != nullptr) *errors = n;
  });
}

klError klSetKernelExecHint(const char* kernel, int convergent,
                            int needs_fibers) {
  if (kernel == nullptr)
    return record_error(klErrorInvalidValue, "null kernel name");
  return guarded([&] {
    simt::set_exec_hint(kernel, {convergent != 0, needs_fibers != 0});
  });
}

klError klRegisterExecHints(const char* source, int* registered) {
  if (source == nullptr)
    return record_error(klErrorInvalidValue, "null source");
  return guarded([&] {
    const int n = rewrite::register_exec_hints(source);
    if (registered != nullptr) *registered = n;
  });
}

namespace detail {
klError launch_erased(const simt::LaunchParams& p, klStream_t stream,
                      simt::KernelFn fn) {
  return guarded([&] {
    stream_or_default("kl::launch", stream).launch(p, std::move(fn));
  });
}
}  // namespace detail

}  // namespace kl
