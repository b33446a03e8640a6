#pragma once
// pack_arena.hpp — per-thread persistent GEMM packing storage (internal).
//
// The blocked kernels used to allocate their packed A/B panels with
// aligned_buffer inside the (jc, pc) and ic loops — an allocator
// round-trip per panel on the hottest path in the repo.  The arena keeps
// one grow-only 64-byte-aligned allocation per slot per thread, so after
// the first call at a given shape the packing path performs ZERO heap
// allocations (verified by test_fused_engine's AllocationFreeAfterWarmup).
//
// Lifetime rules:
//  - Each thread (pool workers included) owns a thread_local arena;
//    acquire() pointers are valid on the acquiring thread until its next
//    acquire() of the SAME slot.  Slots never shrink and are freed only at
//    thread exit.
//  - A GEMM call uses slot_b on the calling thread for B panels (packed
//    before the parallel region, read by all workers) and slot_a on each
//    worker for its private A block — distinct slots, so the master
//    thread can hold both simultaneously.  The fused complex engine adds
//    slot_p (each block's running plane products) on whichever thread
//    runs the block.
//  - Slots must not be held across a nested GEMM call on the same thread,
//    with one exception: under a split mode the complex engine keeps its
//    dense planes in slot_planes while it runs the four real sgemm_split
//    products, which use slots A and B only.
//
// Packed panels are fully written (edge tiles are zero-padded by the pack
// routines), so acquire() intentionally does not zero memory.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "dcmesh/common/aligned.hpp"

namespace dcmesh::blas::detail {

/// Arena slots: B panels (packed by the calling thread, shared with the
/// parallel region), A blocks (private to each worker thread), the
/// complex engine's running plane products, and its split-mode dense
/// planes.
inline constexpr int kArenaSlotB = 0;
inline constexpr int kArenaSlotA = 1;
inline constexpr int kArenaSlotP = 2;
inline constexpr int kArenaSlotPlanes = 3;
inline constexpr int kArenaSlots = 4;

/// Grow-only aligned scratch slots; one instance per thread.
class pack_arena {
 public:
  pack_arena() noexcept = default;
  pack_arena(const pack_arena&) = delete;
  pack_arena& operator=(const pack_arena&) = delete;

  ~pack_arena() {
    for (auto& s : slots_) {
      ::operator delete[](s.bytes, std::align_val_t{kCacheLineBytes});
    }
  }

  /// Scratch for `count` elements of T in `slot`.  Reuses (and may
  /// invalidate) the slot's previous allocation; grows only when the
  /// running maximum does.
  template <typename T>
  [[nodiscard]] T* acquire(int slot, std::size_t count) {
    slot_storage& s = slots_[slot];
    const std::size_t bytes = count * sizeof(T);
    if (bytes > s.capacity) {
      ::operator delete[](s.bytes, std::align_val_t{kCacheLineBytes});
      s.bytes = nullptr;  // keep the dtor safe if the next line throws
      s.capacity = 0;
      s.bytes = static_cast<std::byte*>(::operator new[](
          bytes, std::align_val_t{kCacheLineBytes}));
      s.capacity = bytes;
      allocation_count().fetch_add(1, std::memory_order_relaxed);
    }
    return reinterpret_cast<T*>(s.bytes);
  }

  /// Bytes `slot` holds now: the largest acquire it has served.
  [[nodiscard]] std::size_t capacity(int slot) const noexcept {
    return slots_[slot].capacity;
  }

  /// This thread's arena.
  [[nodiscard]] static pack_arena& for_thread() {
    thread_local pack_arena arena;
    return arena;
  }

  /// Process-wide count of slot (re)allocations — a steady value across
  /// repeated same-shape GEMMs is the "allocation-free after warmup"
  /// property the tests lock.
  [[nodiscard]] static std::uint64_t total_allocations() noexcept {
    return allocation_count().load(std::memory_order_relaxed);
  }

 private:
  struct slot_storage {
    std::byte* bytes = nullptr;
    std::size_t capacity = 0;
  };

  [[nodiscard]] static std::atomic<std::uint64_t>& allocation_count() noexcept {
    static std::atomic<std::uint64_t> count{0};
    return count;
  }

  slot_storage slots_[kArenaSlots];
};

}  // namespace dcmesh::blas::detail
