#ifndef DOPPLER_STREAM_STREAM_STATS_H_
#define DOPPLER_STREAM_STREAM_STATS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "catalog/resource.h"
#include "stream/streaming_trace.h"

namespace doppler::stream {

/// Incrementally maintained order statistics over a StreamingTrace window —
/// the streaming counterpart of telemetry::TraceStatsCache (DESIGN.md §13).
///
/// Per dimension it keeps the window's values in ascending (value, seq)
/// order as two parallel vectors. Because window-relative row index equals
/// seq - first_seq (monotone in seq), this order is exactly the order a
/// stable sort by value gives on the materialised window (equal values
/// keep row order) — so Sorted() and Quantile() are bit-identical to
/// rebuilding a TraceStatsCache from scratch, and RowOf() to a stable
/// argsort, which the differential harness (tests/stream_test.cc) locks
/// at every step.
///
/// Each append/evict patches one slot per dimension (a binary-searched
/// insert/erase, O(log n) search + O(n) shift) instead of the O(n log n)
/// full re-sort per tick; the patch count is charged to the
/// `stream.rows_patched` counter, which the bench gate locks so an
/// accidental rebuild-per-tick regression fails `check.sh --bench`.
///
/// Moments are NOT maintained as running sums — incremental accumulation
/// is not bit-identical to stats::Mean/StdDev summation order. Instead
/// Mean/StdDev are generation-memoized recomputes over the window in seq
/// order, using the same stats:: routines, refreshed only when queried
/// after a mutation.
///
/// Externally synchronized, like the trace it mirrors: the owning
/// CustomerWindow serialises OnAppend/OnEvict against reads.
class StreamStats {
 public:
  /// Borrows `trace`, which must outlive the stats and start empty (the
  /// caller replays any pre-existing rows through OnAppend).
  explicit StreamStats(const StreamingTrace* trace);

  StreamStats(const StreamStats&) = delete;
  StreamStats& operator=(const StreamStats&) = delete;

  const StreamingTrace& trace() const { return *trace_; }

  /// Patches every dimension for the row just appended at `seq` (call
  /// after StreamingTrace::Append).
  void OnAppend(std::uint64_t seq);

  /// Unpatches every dimension for the row about to be evicted at `seq`
  /// (call BEFORE StreamingTrace::PopFront, while the values are live).
  void OnEvict(std::uint64_t seq);

  /// Ascending-sorted window values; bit-identical to
  /// TraceStatsCache::Sorted on the materialised window.
  const std::vector<double>& Sorted(catalog::ResourceDim dim) const {
    return dims_[Index(dim)].sorted_values;
  }

  /// Sequence numbers behind Sorted(), same order.
  const std::vector<std::uint64_t>& SortedSeqs(catalog::ResourceDim dim) const {
    return dims_[Index(dim)].sorted_seqs;
  }

  /// Window-relative row index of sorted position i — equals position i
  /// of a stable argsort of the materialised window.
  std::uint32_t RowOf(catalog::ResourceDim dim, std::size_t i) const {
    return static_cast<std::uint32_t>(dims_[Index(dim)].sorted_seqs[i] -
                                      trace_->first_seq());
  }

  /// R-7 quantile over the maintained sorted values (0 when absent/empty).
  double Quantile(catalog::ResourceDim dim, double q) const;

  double Mean(catalog::ResourceDim dim) const;
  double StdDev(catalog::ResourceDim dim) const;
  double Min(catalog::ResourceDim dim) const;
  double Max(catalog::ResourceDim dim) const;

 private:
  struct DimState {
    // Parallel vectors in ascending (value, seq) order.
    std::vector<double> sorted_values;
    std::vector<std::uint64_t> sorted_seqs;
    // Generation-memoized exact moments (recomputed via stats:: when the
    // trace has mutated since `moments_generation`).
    std::uint64_t moments_generation = 0;
    bool moments_built = false;
    double mean = 0.0;
    double stddev = 0.0;
  };

  static constexpr std::size_t Index(catalog::ResourceDim dim) {
    return static_cast<std::size_t>(static_cast<int>(dim));
  }

  /// Sorted position of (value, seq) — first index whose entry orders
  /// after it.
  std::size_t PositionOf(const DimState& state, double value,
                         std::uint64_t seq) const;

  const DimState& Moments(catalog::ResourceDim dim) const;

  const StreamingTrace* trace_;
  mutable std::array<DimState, catalog::kNumResourceDims> dims_;
  mutable std::vector<double> moments_scratch_;
};

}  // namespace doppler::stream

#endif  // DOPPLER_STREAM_STREAM_STATS_H_
