#ifndef DOPPLER_UTIL_ALIGNED_H_
#define DOPPLER_UTIL_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

namespace doppler {

/// Minimal over-aligned allocator for hot-path containers: the catalog's
/// capacity rows and the scan's throttled-row marks. Starting each buffer on its own cache line keeps the
/// scan kernel's (util/kernels/) vector loads from straddling lines and
/// lets the prefetcher stream one buffer without pulling its neighbours.
/// Alignment must be a power of two and at least alignof(T).
template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "alignment below the type's natural alignment");

  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  bool operator==(const AlignedAllocator&) const { return true; }
  bool operator!=(const AlignedAllocator&) const { return false; }
};

/// A std::vector whose storage starts on a cache-line boundary. Iterates,
/// indexes, and resizes exactly like std::vector<T>; only the allocator
/// (and therefore the type) differs, so consumers that held
/// `const std::vector<T>&` must hold `const AlignedVector<T>&` (or auto&)
/// instead.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

/// Scratch-lifetime policy for hot-path per-thread buffers (DESIGN.md §9):
/// scratch is reused across evaluations so the hot path never allocates
/// after warm-up, but one oversized trace must not pin its high-water mark
/// for the lifetime of the thread. After each use, a buffer whose capacity
/// exceeds this bound is released back to the allocator. Steady-state DMA
/// traces sit far below it (a 30-day trace is ~4.3k rows, ~4 KiB of scan
/// marks), so the trim only ever fires after an outlier trace.
inline constexpr std::size_t kScratchRetainBytes = std::size_t{1} << 20;

/// Applies the policy above to one scratch vector: keep the buffer when its
/// footprint is within kScratchRetainBytes, release it otherwise.
/// Allocator-generic so cache-aligned scratch gets the same policy.
template <typename T, typename Alloc>
void TrimScratch(std::vector<T, Alloc>& scratch) {
  if (scratch.capacity() * sizeof(T) > kScratchRetainBytes) {
    scratch = std::vector<T, Alloc>();
  }
}

}  // namespace doppler

#endif  // DOPPLER_UTIL_ALIGNED_H_
