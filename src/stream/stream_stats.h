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
/// Per dimension it keeps the window's values in ascending order, equal
/// values in row (== seq) order — exactly the order a stable sort by value
/// gives on the materialised window. So Sorted() and Quantile() are
/// bit-identical to rebuilding a TraceStatsCache from scratch, including
/// which of a tied 0.0 / -0.0 pair sorts first; the differential harness
/// (tests/stream_test.cc) locks this byte for byte at every step.
///
/// The order needs no per-value seq: rows are appended in seq order, so
/// each one goes last in its tie run (upper_bound), and eviction is FIFO, so the
/// departing row is the oldest in the window and therefore first in its
/// tie run (lower_bound).
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
  /// caller replays any pre-existing rows through OnAppend, oldest first).
  explicit StreamStats(const StreamingTrace* trace);

  StreamStats(const StreamStats&) = delete;
  StreamStats& operator=(const StreamStats&) = delete;

  const StreamingTrace& trace() const { return *trace_; }

  /// Patches every dimension for the row just appended at `seq` (call
  /// after StreamingTrace::Append).
  void OnAppend(std::uint64_t seq);

  /// Unpatches every dimension for the row about to be evicted at `seq`
  /// (call BEFORE StreamingTrace::PopFront, while the values are live).
  /// `seq` must be the oldest live row, trace().first_seq().
  void OnEvict(std::uint64_t seq);

  /// Ascending-sorted window values; bit-identical to
  /// TraceStatsCache::Sorted on the materialised window.
  const std::vector<double>& Sorted(catalog::ResourceDim dim) const {
    return dims_[Index(dim)].sorted_values;
  }

  /// R-7 quantile over the maintained sorted values (0 when absent/empty).
  double Quantile(catalog::ResourceDim dim, double q) const;

  double Mean(catalog::ResourceDim dim) const;
  double StdDev(catalog::ResourceDim dim) const;
  double Min(catalog::ResourceDim dim) const;
  double Max(catalog::ResourceDim dim) const;

 private:
  struct DimState {
    // Ascending values, ties in seq order.
    std::vector<double> sorted_values;
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

  const DimState& Moments(catalog::ResourceDim dim) const;

  const StreamingTrace* trace_;
  mutable std::array<DimState, catalog::kNumResourceDims> dims_;
  mutable std::vector<double> moments_scratch_;
};

}  // namespace doppler::stream

#endif  // DOPPLER_STREAM_STREAM_STATS_H_
