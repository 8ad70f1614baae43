#include "simt/memory.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "simt/fault.h"
#include "simt/san.h"

namespace simt {

namespace {
constexpr std::size_t kAlignment = 256;  // cudaMalloc guarantees >= 256

std::size_t round_up(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}
}  // namespace

const char* copy_kind_label(CopyKind kind) {
  switch (kind) {
    case CopyKind::kHostToDevice: return "memcpy H2D";
    case CopyKind::kDeviceToHost: return "memcpy D2H";
    case CopyKind::kDeviceToDevice: return "memcpy D2D";
    case CopyKind::kHostToHost: return "memcpy H2H";
  }
  return "memcpy";
}

DeviceMemory::~DeviceMemory() {
  std::lock_guard lock(mu_);
  for (auto& [base, info] : allocs_) {
    (void)base;
    std::free(reinterpret_cast<void*>(info.real_base));
  }
  for (auto& [base, info] : quarantine_) {
    (void)base;
    std::free(reinterpret_cast<void*>(info.real_base));
  }
}

void* DeviceMemory::allocate(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  if (fault_should_fire(FaultSite::kDeviceAlloc))
    throw DeviceOOMError("fault injection: device allocation of " +
                         std::to_string(bytes) + " byte(s) refused");
  std::lock_guard lock(mu_);
  if (in_use_ + bytes > capacity_)
    throw DeviceOOMError(
        "device out of memory: " + std::to_string(bytes) +
        " byte(s) requested with " + std::to_string(in_use_) + " of " +
        std::to_string(capacity_) + " byte(s) in use");
  AllocInfo info;
  info.bytes = bytes;
  // Redzone width is one alignment quantum so the user pointer keeps
  // the 256-byte guarantee. Only taken while the memcheck is enabled:
  // the registry remembers per allocation, so toggling the sanitizer
  // mid-process stays consistent.
  info.redzone = san_enabled(kSanMem) ? kAlignment : 0;
  info.footprint = round_up(bytes, kAlignment) + 2 * info.redzone;
  void* p = std::aligned_alloc(kAlignment, info.footprint);
  if (p == nullptr) throw std::bad_alloc();
  info.real_base = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t user = info.real_base + info.redzone;
  if (info.redzone != 0) {
    // Poison the leading redzone and everything past the user bytes
    // (alignment padding included — an overrun into it is still OOB).
    std::memset(p, kRedzonePattern, info.redzone);
    std::memset(reinterpret_cast<void*>(user + bytes), kRedzonePattern,
                info.footprint - info.redzone - bytes);
  }
  allocs_.emplace(user, info);
  in_use_ += bytes;
  return reinterpret_cast<void*>(user);
}

void DeviceMemory::verify_redzones_locked(std::uintptr_t user_base,
                                          const AllocInfo& info) {
  if (info.redzone == 0) return;
  const auto* bytes = reinterpret_cast<const unsigned char*>(info.real_base);
  const std::size_t lead = info.redzone;
  const std::size_t tail_start = lead + info.bytes;
  for (std::size_t i = 0; i < info.footprint; ++i) {
    if (i >= lead && i < tail_start) continue;
    if (bytes[i] == kRedzonePattern) continue;
    SanDiag d;
    d.kind = SanKind::kRedzoneCorruption;
    d.addr = reinterpret_cast<const void*>(info.real_base + i);
    d.bytes = 1;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "redzone corrupted at free: byte %+" PRIdPTR
                  " relative to the %zu-byte allocation at 0x%" PRIxPTR
                  " was overwritten (0x%02x)",
                  static_cast<std::intptr_t>(info.real_base + i) -
                      static_cast<std::intptr_t>(user_base),
                  info.bytes, user_base, bytes[i]);
    d.message = buf;
    San::instance().record(std::move(d));
    return;  // one finding per allocation is enough
  }
}

void DeviceMemory::deallocate(void* ptr) {
  if (ptr == nullptr) return;
  std::lock_guard lock(mu_);
  const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
  auto it = allocs_.find(addr);
  if (it == allocs_.end()) {
    if (quarantine_.count(addr) != 0)
      throw std::invalid_argument(
          "DeviceMemory::deallocate: double free (allocation was already "
          "freed and is held in the sanitizer quarantine)");
    throw std::invalid_argument(
        "DeviceMemory::deallocate: not a live device allocation");
  }
  AllocInfo info = it->second;
  in_use_ -= info.bytes;
  allocs_.erase(it);
  verify_redzones_locked(addr, info);
  // Poison-on-free, unconditionally: a stale read of freed memory sees
  // 0xDD garbage instead of plausible data, with or without ompxsan.
  std::memset(ptr, kFreePattern, info.bytes);
  if (!san_enabled(kSanMem)) {
    std::free(reinterpret_cast<void*>(info.real_base));
    return;
  }
  // Quarantine: keep the storage resident so instrumented accesses to
  // it classify as use-after-free instead of landing in a recycled
  // allocation. Bounded FIFO so long runs don't hoard memory.
  quarantine_bytes_ += info.footprint;
  quarantine_.emplace(addr, info);
  quarantine_order_.push_back(addr);
  while (quarantine_bytes_ > kQuarantineCap && !quarantine_order_.empty()) {
    const std::uintptr_t oldest = quarantine_order_.front();
    quarantine_order_.pop_front();
    auto qit = quarantine_.find(oldest);
    if (qit == quarantine_.end()) continue;
    quarantine_bytes_ -= qit->second.footprint;
    std::free(reinterpret_cast<void*>(qit->second.real_base));
    quarantine_.erase(qit);
  }
}

bool DeviceMemory::contains(const void* ptr) const {
  std::lock_guard lock(mu_);
  const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
  auto it = allocs_.upper_bound(addr);
  if (it == allocs_.begin()) return false;
  --it;
  return addr < it->first + it->second.bytes;
}

std::size_t DeviceMemory::allocation_size(const void* ptr) const {
  std::lock_guard lock(mu_);
  auto it = allocs_.find(reinterpret_cast<std::uintptr_t>(ptr));
  return it == allocs_.end() ? 0 : it->second.bytes;
}

std::uint64_t DeviceMemory::bytes_in_use() const {
  std::lock_guard lock(mu_);
  return in_use_;
}

std::uint64_t DeviceMemory::live_allocations() const {
  std::lock_guard lock(mu_);
  return allocs_.size();
}

std::vector<LeakInfo> DeviceMemory::leak_report() const {
  std::lock_guard lock(mu_);
  std::vector<LeakInfo> leaks;
  leaks.reserve(allocs_.size());
  for (const auto& [base, info] : allocs_)
    leaks.push_back({reinterpret_cast<const void*>(base), info.bytes});
  return leaks;
}

MemAccessCheck DeviceMemory::check_access(const void* ptr,
                                          std::size_t bytes) const {
  if (bytes == 0) bytes = 1;
  std::lock_guard lock(mu_);
  const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
  MemAccessCheck out;

  // Live allocation at or below addr: in-bounds, overrun, or a hit in
  // its footprint (tail redzone / padding).
  auto it = allocs_.upper_bound(addr);
  if (it != allocs_.begin()) {
    auto prev = std::prev(it);
    const std::uintptr_t user = prev->first;
    const AllocInfo& info = prev->second;
    if (addr < user + info.bytes) {
      out.base = user;
      out.size = info.bytes;
      out.status = addr + bytes <= user + info.bytes
                       ? MemAccessCheck::Status::kOk
                       : MemAccessCheck::Status::kOob;
      return out;
    }
    if (addr < info.real_base + info.footprint) {
      out.base = user;
      out.size = info.bytes;
      out.status = MemAccessCheck::Status::kOob;
      return out;
    }
  }
  // Leading redzone of the next allocation (underrun).
  if (it != allocs_.end()) {
    const AllocInfo& next = it->second;
    if (addr + bytes > next.real_base && addr >= next.real_base) {
      out.base = it->first;
      out.size = next.bytes;
      out.status = MemAccessCheck::Status::kOob;
      return out;
    }
  }
  // Quarantined (freed) allocations, full footprint.
  auto qit = quarantine_.upper_bound(addr);
  if (qit != quarantine_.begin()) {
    auto prev = std::prev(qit);
    const AllocInfo& info = prev->second;
    if (addr < info.real_base + info.footprint) {
      out.base = prev->first;
      out.size = info.bytes;
      out.status = MemAccessCheck::Status::kFreed;
      return out;
    }
  }
  return out;  // kUnknown
}

void DeviceMemory::validate_device_range(const void* ptr, std::size_t bytes,
                                         const char* what) const {
  std::lock_guard lock(mu_);
  const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
  auto it = allocs_.upper_bound(addr);
  if (it != allocs_.begin()) {
    --it;
    if (addr >= it->first && addr + bytes <= it->first + it->second.bytes)
      return;
  }
  throw std::out_of_range(std::string(what) +
                          ": range is not within a live device allocation");
}

std::size_t DeviceMemory::copy(void* dst, const void* src, std::size_t bytes,
                               CopyKind kind) const {
  if (bytes == 0) return 0;
  if (dst == nullptr || src == nullptr)
    throw std::invalid_argument("DeviceMemory::copy: null pointer");
  switch (kind) {
    case CopyKind::kHostToDevice:
      validate_device_range(dst, bytes, "copy(H2D) dst");
      break;
    case CopyKind::kDeviceToHost:
      validate_device_range(src, bytes, "copy(D2H) src");
      break;
    case CopyKind::kDeviceToDevice:
      validate_device_range(dst, bytes, "copy(D2D) dst");
      validate_device_range(src, bytes, "copy(D2D) src");
      break;
    case CopyKind::kHostToHost:
      break;
  }
  std::memmove(dst, src, bytes);
  return bytes;
}

std::size_t DeviceMemory::copy_2d(void* dst, std::size_t dpitch,
                                  const void* src, std::size_t spitch,
                                  std::size_t width, std::size_t height,
                                  CopyKind kind) const {
  if (width == 0 || height == 0) return 0;
  if (dpitch < width || spitch < width)
    throw std::invalid_argument("copy_2d: pitch smaller than row width");
  if (dst == nullptr || src == nullptr)
    throw std::invalid_argument("copy_2d: null pointer");
  const std::size_t dst_span = dpitch * (height - 1) + width;
  const std::size_t src_span = spitch * (height - 1) + width;
  switch (kind) {
    case CopyKind::kHostToDevice:
      validate_device_range(dst, dst_span, "copy_2d(H2D) dst");
      break;
    case CopyKind::kDeviceToHost:
      validate_device_range(src, src_span, "copy_2d(D2H) src");
      break;
    case CopyKind::kDeviceToDevice:
      validate_device_range(dst, dst_span, "copy_2d(D2D) dst");
      validate_device_range(src, src_span, "copy_2d(D2D) src");
      break;
    case CopyKind::kHostToHost:
      break;
  }
  auto* d = static_cast<char*>(dst);
  const auto* s = static_cast<const char*>(src);
  for (std::size_t row = 0; row < height; ++row)
    std::memmove(d + row * dpitch, s + row * spitch, width);
  return width * height;
}

void DeviceMemory::set(void* ptr, int value, std::size_t bytes) const {
  if (bytes == 0) return;
  validate_device_range(ptr, bytes, "memset");
  std::memset(ptr, value, bytes);
}

// ---------------------------------------------------------- StreamMemPool

void* StreamMemPool::acquire(std::uint64_t stream_id, std::size_t bytes) {
  std::lock_guard lock(mu_);
  auto pit = pools_.find(stream_id);
  if (pit != pools_.end()) {
    auto bit = pit->second.find(bytes);
    if (bit != pit->second.end()) {
      void* p = bit->second;
      pit->second.erase(bit);
      stats_.reuse_hits++;
      stats_.bytes_reused += bytes;
      return p;
    }
  }
  stats_.misses++;
  return nullptr;
}

void StreamMemPool::release(std::uint64_t stream_id, void* ptr,
                            std::size_t bytes) {
  std::lock_guard lock(mu_);
  pools_[stream_id].emplace(bytes, ptr);
  stats_.frees++;
}

void StreamMemPool::trim() {
  std::lock_guard lock(mu_);
  for (auto& [id, pool] : pools_) {
    for (auto& [bytes, ptr] : pool) {
      mem_.deallocate(ptr);
      stats_.reclaimed_blocks++;
      stats_.reclaimed_bytes += bytes;
    }
  }
  pools_.clear();
}

void StreamMemPool::trim_stream(std::uint64_t stream_id) {
  std::lock_guard lock(mu_);
  // The stream is going away: release its async-origin claims so any
  // still-live malloc_async blocks become plain-freeable (ompx_free)
  // instead of being stranded behind a dead stream.
  for (auto ait = async_live_.begin(); ait != async_live_.end();) {
    if (ait->second == stream_id)
      ait = async_live_.erase(ait);
    else
      ++ait;
  }
  auto it = pools_.find(stream_id);
  if (it == pools_.end()) return;
  for (auto& [bytes, ptr] : it->second) {
    mem_.deallocate(ptr);
    stats_.reclaimed_blocks++;
    stats_.reclaimed_bytes += bytes;
  }
  pools_.erase(it);
}

void StreamMemPool::note_async_live(const void* ptr, std::uint64_t stream_id) {
  std::lock_guard lock(mu_);
  async_live_[ptr] = stream_id;
}

void StreamMemPool::note_async_dead(const void* ptr) {
  std::lock_guard lock(mu_);
  async_live_.erase(ptr);
}

bool StreamMemPool::is_async_live(const void* ptr) const {
  std::lock_guard lock(mu_);
  return async_live_.count(ptr) != 0;
}

MemPoolStats StreamMemPool::stats() const {
  std::lock_guard lock(mu_);
  MemPoolStats s = stats_;
  for (const auto& [id, pool] : pools_) {
    s.pooled_blocks += pool.size();
    for (const auto& [bytes, ptr] : pool) s.pooled_bytes += bytes;
  }
  return s;
}

void StreamMemPool::reset_stats() {
  std::lock_guard lock(mu_);
  stats_ = MemPoolStats{};
}

}  // namespace simt
