// Device global-memory manager.
//
// Each simulated device owns a distinct allocation space. Allocations
// live in host memory (the simulation is in-process) but are tracked in
// a registry so the engine can enforce the device/host pointer
// distinction (is_device_ptr), device capacity, and double-free /
// invalid-free errors — the failure modes libomptarget and the CUDA
// runtime check for.
//
// The registry doubles as the memcheck substrate for ompxsan (see
// simt/san.h): with kSanMem enabled, allocations grow poisoned
// redzones (verified on free, so raw-pointer overruns surface),
// freed blocks are quarantined so use-after-free is detectable, and
// check_access() classifies an arbitrary pointer range for the
// instrumented accessors. Independent of the sanitizer, every free
// poison-fills the payload (0xDD) and leak_report() lists what is
// still live — Device teardown logs it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace simt {

enum class CopyKind { kHostToDevice, kDeviceToHost, kDeviceToDevice, kHostToHost };

/// Trace/enumeration label of a copy: "memcpy H2D", "memcpy D2H", ...
const char* copy_kind_label(CopyKind kind);

/// Fill patterns (AddressSanitizer-style conventions).
inline constexpr unsigned char kRedzonePattern = 0xAB;  ///< guard bands
inline constexpr unsigned char kFreePattern = 0xDD;     ///< freed payload

/// Result of classifying a pointer range against the registry
/// (ompxsan memcheck; see DeviceMemory::check_access).
struct MemAccessCheck {
  enum class Status {
    kOk,       ///< fully inside one live allocation
    kOob,      ///< touches a live allocation's redzone / runs past it
    kFreed,    ///< inside a quarantined (freed) allocation
    kUnknown,  ///< no allocation of this space involved
  };
  Status status = Status::kUnknown;
  std::uintptr_t base = 0;  ///< user base of the allocation involved
  std::size_t size = 0;     ///< its user size in bytes
};

/// One live allocation, as reported at device teardown.
struct LeakInfo {
  const void* ptr = nullptr;
  std::size_t bytes = 0;
};

class DeviceMemory {
 public:
  explicit DeviceMemory(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}
  ~DeviceMemory();

  DeviceMemory(const DeviceMemory&) = delete;
  DeviceMemory& operator=(const DeviceMemory&) = delete;

  /// Allocates `bytes` of device memory (256-byte aligned, like CUDA).
  /// Returns nullptr for bytes == 0. Throws DeviceOOMError (a
  /// std::bad_alloc) when the device capacity would be exceeded or the
  /// fault injector's "oom" site fires. With kSanMem enabled the block
  /// is bracketed by poisoned redzones (not counted against capacity).
  void* allocate(std::size_t bytes);

  /// Frees a pointer returned by allocate(). Throws std::invalid_argument
  /// on non-device or already-freed pointers. nullptr is a no-op.
  /// Always poison-fills the payload (kFreePattern); verifies redzone
  /// poison when present (corruption becomes a SanDiag); quarantines
  /// the block instead of releasing it while kSanMem is enabled.
  void deallocate(void* ptr);

  /// True if `ptr` points into any live device allocation (interior
  /// pointers included).
  [[nodiscard]] bool contains(const void* ptr) const;

  /// Size of the live allocation starting exactly at `ptr`, or 0.
  [[nodiscard]] std::size_t allocation_size(const void* ptr) const;

  [[nodiscard]] std::uint64_t bytes_in_use() const;
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t live_allocations() const;

  /// Every live allocation (base pointer + user size), for the
  /// teardown leak report.
  [[nodiscard]] std::vector<LeakInfo> leak_report() const;

  /// Classifies the byte range [ptr, ptr+bytes) for the memcheck
  /// accessors: inside a live allocation, out of its bounds (redzone /
  /// overrun / underrun), inside a quarantined free, or unknown to
  /// this space. bytes == 0 is treated as 1.
  [[nodiscard]] MemAccessCheck check_access(const void* ptr,
                                            std::size_t bytes) const;

  /// Copies with device-pointer validation appropriate to `kind`.
  /// Returns the byte count (for transfer accounting by the caller).
  std::size_t copy(void* dst, const void* src, std::size_t bytes, CopyKind kind) const;

  /// memset on a device allocation with bounds validation.
  void set(void* ptr, int value, std::size_t bytes) const;

  /// Validates that [ptr, ptr+bytes) lies within one live allocation of
  /// this space; throws std::out_of_range naming `what` otherwise. Used
  /// internally by copy()/set() and by the cross-device peer-copy path,
  /// which must bounds-check each endpoint against its own device.
  void validate_device_range(const void* ptr, std::size_t bytes,
                             const char* what) const;

  /// Pitched 2-D copy (cudaMemcpy2D): `height` rows of `width` bytes,
  /// rows `dpitch`/`spitch` bytes apart. Pitches must be >= width; the
  /// whole pitched footprint of the device side(s) is bounds-checked.
  /// Returns the payload byte count (width * height).
  std::size_t copy_2d(void* dst, std::size_t dpitch, const void* src,
                      std::size_t spitch, std::size_t width,
                      std::size_t height, CopyKind kind) const;

 private:
  /// Registry entry. real_base == user base and redzone == 0 for
  /// allocations made while the sanitizer was off.
  struct AllocInfo {
    std::size_t bytes = 0;         ///< user size
    std::uintptr_t real_base = 0;  ///< what aligned_alloc returned
    std::size_t redzone = 0;       ///< guard bytes on each side
    std::size_t footprint = 0;     ///< total bytes from real_base
  };

  void verify_redzones_locked(std::uintptr_t user_base, const AllocInfo& info);

  std::uint64_t capacity_;
  mutable std::mutex mu_;
  std::uint64_t in_use_ = 0;
  // user base pointer -> info; ordered so interior-pointer lookup is
  // O(log n).
  std::map<std::uintptr_t, AllocInfo> allocs_;
  // Quarantine of freed blocks (kSanMem): storage stays resident so
  // use-after-free is classifiable; bounded FIFO eviction.
  std::map<std::uintptr_t, AllocInfo> quarantine_;
  std::deque<std::uintptr_t> quarantine_order_;
  std::uint64_t quarantine_bytes_ = 0;
  static constexpr std::uint64_t kQuarantineCap = 64ull << 20;
};

/// Aggregate accounting of a device's stream-ordered memory pool.
struct MemPoolStats {
  std::uint64_t reuse_hits = 0;    ///< malloc_async served from the pool
  std::uint64_t misses = 0;        ///< malloc_async fell back to allocate()
  std::uint64_t frees = 0;         ///< free_async blocks returned to the pool
  std::uint64_t bytes_reused = 0;  ///< payload bytes served from the pool
  std::uint64_t pooled_blocks = 0; ///< blocks currently cached
  std::uint64_t pooled_bytes = 0;  ///< bytes currently cached
  std::uint64_t reclaimed_blocks = 0;  ///< pooled blocks returned to the heap
  std::uint64_t reclaimed_bytes = 0;   ///< bytes returned by trim/trim_stream
};

/// The stream-ordered allocator's free pool (cudaMallocAsync semantics).
///
/// `Stream::free_async` returns a block to its stream's pool at *enqueue*
/// time: previously enqueued ops on the same stream still execute before
/// any op that uses the reused pointer, so same-stream reuse is ordered
/// by construction — exactly the guarantee CUDA's stream-ordered
/// allocator gives. Blocks stay live in DeviceMemory while pooled (no
/// poison/quarantine) and are only deallocate()d by trim(), which runs
/// on stream destroy and device teardown. Reuse requires an exact size
/// match and never crosses streams (cross-stream reuse would need event
/// ordering the pool cannot see).
class StreamMemPool {
 public:
  explicit StreamMemPool(DeviceMemory& mem) : mem_(mem) {}
  ~StreamMemPool() { trim(); }

  StreamMemPool(const StreamMemPool&) = delete;
  StreamMemPool& operator=(const StreamMemPool&) = delete;

  /// A pooled block of exactly `bytes` from `stream_id`'s pool, or
  /// nullptr on a miss (the caller then allocates fresh). Updates
  /// hit/miss accounting either way.
  void* acquire(std::uint64_t stream_id, std::size_t bytes);

  /// Returns `ptr` (a live DeviceMemory allocation of `bytes`) to
  /// `stream_id`'s pool for reuse by later malloc_asyncs on that stream.
  void release(std::uint64_t stream_id, void* ptr, std::size_t bytes);

  /// deallocate()s every pooled block (all streams / one stream).
  void trim();
  void trim_stream(std::uint64_t stream_id);

  /// Async-origin registry: every pointer currently live to a client
  /// that came from malloc_async, keyed back to its stream. The free
  /// paths consult it so a cross-API free (ompx_free of a malloc_async
  /// block, free_async of a plain ompx_malloc block) is rejected with a
  /// clean error instead of corrupting the pool — a pooled block that a
  /// later plain free also deallocates would dangle until trim
  /// double-frees it. trim_stream releases the stream's entries: once
  /// the owning stream is destroyed (including a timed-out stream the
  /// watchdog killed), its surviving blocks become plain-freeable, so
  /// they are never stranded.
  void note_async_live(const void* ptr, std::uint64_t stream_id);
  void note_async_dead(const void* ptr);
  [[nodiscard]] bool is_async_live(const void* ptr) const;

  [[nodiscard]] MemPoolStats stats() const;
  void reset_stats();

 private:
  DeviceMemory& mem_;
  mutable std::mutex mu_;
  // stream id -> exact-size free lists (size -> block), LIFO per size.
  std::unordered_map<std::uint64_t, std::multimap<std::size_t, void*>> pools_;
  std::unordered_map<const void*, std::uint64_t> async_live_;  ///< ptr -> stream
  MemPoolStats stats_;
};

}  // namespace simt
