// Checks shared by both host APIs (the ompx_* C ABI and the kl*
// CUDA-shaped API) at their boundary. Each failure throws an exception
// that classify_exception() (fault.h) places in the class the error
// contract gives it, with the caller's `who` prefix in what(): a bad
// handle throws std::invalid_argument ("<who>: invalid or destroyed
// stream handle"), a bad device index InvalidDeviceError. The success
// path neither allocates nor throws.
#pragma once

#include <stdexcept>
#include <string>

#include "simt/device.h"
#include "simt/fault.h"
#include "simt/graph.h"
#include "simt/memory.h"
#include "simt/profiler.h"
#include "simt/stream.h"

namespace simt {

/// The live T behind a handle; null, destroyed and foreign handles are
/// caught by the `alive` registry check, never dereferenced.
template <typename T, typename Alive>
T& live_handle(const char* who, const char* kind, const void* handle,
               Alive&& alive) {
  auto* p = static_cast<T*>(const_cast<void*>(handle));
  if (p == nullptr || !alive(p))
    throw std::invalid_argument(std::string(who) + ": invalid or destroyed " +
                                kind + " handle");
  return *p;
}

inline Stream& live_stream(const char* who, const void* handle) {
  return live_handle<Stream>(who, "stream", handle, stream_alive);
}
inline Event& live_event(const char* who, const void* handle) {
  return live_handle<Event>(who, "event", handle, event_alive);
}
inline Graph& live_graph(const char* who, const void* handle) {
  return live_handle<Graph>(who, "graph", handle, graph_alive);
}

/// The registry device at `index`.
inline Device& registry_device(const char* who, int index) {
  const auto& reg = device_registry();
  if (index < 0 || index >= static_cast<int>(reg.size()))
    throw InvalidDeviceError(std::string(who) + ": bad device index " +
                             std::to_string(index));
  return *reg[static_cast<std::size_t>(index)];
}

/// cudaMemcpy-style legacy-stream rule for a host-blocking op: first
/// observe every launch already enqueued on `dev`. Skipped on executor
/// threads (a host-fn callback calling back into a host API must not
/// wait on its own stream).
inline void sync_for_host_op(Device& dev) {
  if (!telemetry_detail::t_in_stream_op) dev.synchronize();
}

/// A plain free of `ptr` on `dev`. Refuses a block the stream-ordered
/// pool owns (freeing it here would leave the pool holding a dangling
/// pointer that trim double-frees); `async_free` names the call to use
/// instead. Then waits for in-flight launches that may still use the
/// block, and frees it.
inline void free_plain(const char* who, const char* async_free, Device& dev,
                       void* ptr) {
  if (ptr != nullptr && dev.mem_pool().is_async_live(ptr))
    throw std::invalid_argument(
        std::string(who) +
        ": pointer was allocated by the stream-ordered allocator; use " +
        async_free + " on its stream (a cross-API free would corrupt the " +
        "stream-ordered pool)");
  sync_for_host_op(dev);
  dev.memory().deallocate(ptr);
}

}  // namespace simt
