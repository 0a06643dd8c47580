#ifndef DOPPLER_STREAM_STREAM_INDEX_H_
#define DOPPLER_STREAM_STREAM_INDEX_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "catalog/resource.h"
#include "stream/stream_stats.h"
#include "stream/streaming_trace.h"
#include "util/kernels/bitset_arena.h"

namespace doppler::stream {

/// One memoized exceedance set: the window rows whose demand in one
/// dimension exceeds one capacity value, packed 64 ring slots per word
/// (slot s is bit s%64 of word s/64; padding bits past the ring capacity
/// are zero). The words live in the owning dimension's BitsetArena — 64-byte
/// aligned, zero-padded at birth, stable for the index's lifetime — so the
/// set itself is just a view. The pointer is non-const because the index
/// patches memoized sets bit-by-bit in place.
struct ExceedanceSet {
  std::uint64_t* words = nullptr;
  std::size_t num_words = 0;
  /// Popcount over `words` — the number of exceeding rows.
  std::size_t count = 0;
};

/// Incrementally maintained exceedance index over a StreamingTrace window
/// (DESIGN.md §13). The offline engine scores a curve with one plain
/// columnar scan per SKU (DESIGN.md §9); the monitor keeps this index
/// because per-tick patching beats re-scanning a long-lived window.
///
/// Per (dimension, distinct capacity) it memoizes an ExceedanceSet whose
/// bits are RING-SLOT-aligned (bit = seq % window capacity) rather than
/// row-aligned: slots are stable across evictions, so each append/evict
/// patches one bit per memoized set (set/clear + count ±1) instead of
/// rebuilding the bitset. Dead slots are zero in every set — an evict
/// clears its bit before the slot is reused — so the union of per-dim
/// sets ORs and popcounts to the union cardinality, and
/// CountExceedingUnion / SetFor(...).count equal the row-major Eq. 1
/// counts over the materialised window (the differential harness locks
/// this against a from-scratch count after every step).
///
/// Membership uses the same strict comparisons as
/// catalog::ResourceVector::Exceeds (demand > capacity; demand < capacity
/// for inverted dims), so rows tied at the capacity stay out.
///
/// A NEW capacity's first SetFor builds its set from the StreamStats
/// sorted run boundary (O(exceeding rows)), charging those rows to
/// `stream.rows_patched`; afterwards every mutation patches each memoized
/// set at one bit, charged likewise. Externally synchronized, like the
/// trace and stats it mirrors.
class StreamIndex {
 public:
  /// Borrows `trace` and `stats` (both over the same window, both must
  /// outlive the index and start empty alongside it).
  StreamIndex(const StreamingTrace* trace, const StreamStats* stats);

  StreamIndex(const StreamIndex&) = delete;
  StreamIndex& operator=(const StreamIndex&) = delete;

  /// Words per bitset: fixed by the ring capacity, not the live size.
  std::size_t num_words() const { return num_words_; }

  /// Patches every memoized (dim, capacity) set for the row just appended
  /// at `seq` (call after StreamingTrace::Append).
  void OnAppend(std::uint64_t seq);

  /// Patches every memoized set for the row about to be evicted at `seq`
  /// (call BEFORE StreamingTrace::PopFront).
  void OnEvict(std::uint64_t seq);

  /// The memoized slot-aligned exceedance set for one (dim, capacity);
  /// built from the stats sorted run on first use, patched incrementally
  /// afterwards. The dimension must be in the window.
  const ExceedanceSet& SetFor(catalog::ResourceDim dim, double capacity) const;

  /// Rows of the live window throttled by ANY window dimension priced in
  /// `capacities` — the numerator of paper Eq. 1 over the live window,
  /// answered from the patched sets.
  std::size_t CountExceedingUnion(
      const catalog::ResourceVector& capacities) const;

  /// Distinct capacities currently memoized for a dimension.
  std::size_t MemoSize(catalog::ResourceDim dim) const {
    return dims_[Index(dim)].memo.size();
  }

 private:
  struct DimState {
    // std::map for node stability: SetFor hands out references that must
    // survive later memo insertions.
    std::map<double, ExceedanceSet> memo;
    // Backing store for the memoized bitsets: cache-line-aligned spans.
    // Stream memo entries live for the index's lifetime (patched, never
    // rebuilt), so the arena only grows with distinct capacities and is
    // never Reset().
    kernels::BitsetArena arena;
  };

  static constexpr std::size_t Index(catalog::ResourceDim dim) {
    return static_cast<std::size_t>(static_cast<int>(dim));
  }

  /// True when demand `value` exceeds `capacity` on `dim` —
  /// ResourceVector::Exceeds semantics.
  static bool ExceedsValue(catalog::ResourceDim dim, double value,
                           double capacity) {
    return catalog::IsInvertedDim(dim) ? value < capacity : value > capacity;
  }

  const StreamingTrace* trace_;
  const StreamStats* stats_;
  std::size_t num_words_;
  mutable std::array<DimState, catalog::kNumResourceDims> dims_;
};

}  // namespace doppler::stream

#endif  // DOPPLER_STREAM_STREAM_INDEX_H_
