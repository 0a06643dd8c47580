#ifndef DOPPLER_UTIL_KERNELS_BITSET_ARENA_H_
#define DOPPLER_UTIL_KERNELS_BITSET_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace doppler::kernels {

/// Bump allocator for the word-packed exceedance bitsets of
/// stream::StreamIndex (DESIGN.md §15).
///
/// Memoised exceedance sets used to live in per-set std::vector<uint64_t>
/// buffers — one heap allocation per memo entry, no alignment guarantee,
/// and scattered across the heap so the union loop walked sets that were
/// cache-hostile to each other. The arena hands out 64-byte-aligned word
/// runs carved from large blocks instead: every bitset starts on its own
/// cache line (allocations round up to 8-word / one-line boundaries), sets
/// memoised together sit close together, and dropping a memo generation is
/// one Reset() instead of thousands of frees.
///
/// Padding-bit invariant: blocks are zero-filled when carved, so the
/// padding bits past a set's last row are zero from birth and stay zero —
/// set builders only OR row bits in, and the union kernels rely on this
/// instead of masking tails (kernels.h). Callers reusing a span (the
/// stream index patches bits in place) must keep the invariant when
/// clearing: they only ever clear row bits, so it holds structurally.
///
/// Thread safety: none — each index dimension owns one arena, synchronized
/// externally like the memo map it backs.
class BitsetArena {
 public:
  BitsetArena() = default;
  ~BitsetArena();

  BitsetArena(const BitsetArena&) = delete;
  BitsetArena& operator=(const BitsetArena&) = delete;

  /// A zeroed, 64-byte-aligned run of `num_words` words, valid until
  /// Reset() or destruction. num_words == 0 returns a non-null pointer
  /// (callers treat empty sets uniformly).
  std::uint64_t* Allocate(std::size_t num_words);

  /// Invalidates every span handed out and makes the memory reusable.
  /// Blocks are retained and re-zeroed lazily (on the next carve), so a
  /// steady-state generation bump allocates nothing.
  void Reset();

  /// Words currently reachable from live spans (diagnostics/tests).
  std::size_t allocated_words() const { return allocated_words_; }

  /// Words of block capacity owned by the arena (diagnostics/tests).
  std::size_t capacity_words() const { return capacity_words_; }

 private:
  struct Block {
    std::uint64_t* words = nullptr;
    std::size_t capacity = 0;  // in words
    std::size_t used = 0;      // in words, always a multiple of kLineWords
  };

  // One cache line of words; every allocation is rounded to this.
  static constexpr std::size_t kLineWords = 8;
  // First block carves 1024 words (8 KiB); blocks double up to a cap so
  // large catalogs don't thrash tiny blocks.
  static constexpr std::size_t kInitialBlockWords = 1024;
  static constexpr std::size_t kMaxBlockWords = 1u << 20;

  Block* BlockWithRoom(std::size_t num_words);

  std::vector<Block> blocks_;
  std::size_t allocated_words_ = 0;
  std::size_t capacity_words_ = 0;
};

}  // namespace doppler::kernels

#endif  // DOPPLER_UTIL_KERNELS_BITSET_ARENA_H_
