#ifndef DOPPLER_TELEMETRY_PERF_TRACE_H_
#define DOPPLER_TELEMETRY_PERF_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/resource.h"
#include "util/statusor.h"

namespace doppler::telemetry {

/// The DMA collector's sampling cadence: perf counters are collected every
/// 10 minutes (paper §4).
inline constexpr std::int64_t kDmaIntervalSeconds = 600;

/// Samples per day at the DMA cadence (144).
inline constexpr int kSamplesPerDay =
    static_cast<int>(86400 / kDmaIntervalSeconds);

/// Zero-copy column-major view of a trace's demand matrix over a chosen
/// dimension subset: column k is the contiguous series for the k-th
/// requested dimension, every column sharing one row count. This is the
/// shape the throttling kernels consume — the columnar scan
/// (NonParametricEstimator::Probability) sweeps each column once per
/// evaluation, one evaluation per candidate SKU (DESIGN.md §9).
struct DemandColumns {
  /// One pointer per requested dimension, each to `num_rows` contiguous
  /// doubles. Absent dimensions are skipped entirely.
  std::array<const double*, catalog::kNumResourceDims> columns{};
  std::array<catalog::ResourceDim, catalog::kNumResourceDims> dims{};
  std::size_t num_columns = 0;
  std::size_t num_rows = 0;

  const double* column(std::size_t k) const { return columns[k]; }
  catalog::ResourceDim dim(std::size_t k) const { return dims[k]; }
};

/// A customer's performance history: one aligned, evenly spaced series per
/// collected resource dimension. Index i of every present dimension refers
/// to the same wall-clock sample, which is what the joint (multivariate)
/// throttling estimate needs (paper Eq. 1 evaluates all dimensions "at each
/// time point").
class PerfTrace {
 public:
  /// Creates an empty trace at the given cadence.
  explicit PerfTrace(std::int64_t interval_seconds = kDmaIntervalSeconds)
      : interval_seconds_(interval_seconds) {}

  /// Identifier of the assessed object (instance or database name).
  const std::string& id() const { return id_; }
  void set_id(std::string id) { id_ = std::move(id); }

  std::int64_t interval_seconds() const { return interval_seconds_; }

  /// Mutation counter: bumped by every successful SetSeries. Caches that
  /// BORROW a trace (TraceStatsCache) record the generation they were
  /// built against and rebuild instead of serving stale sorted state when
  /// it has moved on — the eviction/mutation hazard guard (DESIGN.md §13).
  /// Copies carry the source's generation; a copy and its source then
  /// diverge independently.
  std::uint64_t generation() const { return generation_; }

  /// Installs the series for one dimension. The first installed series
  /// fixes the trace length; later series must match it. Replacing an
  /// already-present series keeps the length and bumps generation().
  Status SetSeries(catalog::ResourceDim dim, std::vector<double> values);

  /// True when the dimension was collected.
  bool Has(catalog::ResourceDim dim) const {
    return present_[Index(dim)];
  }

  /// Series for a dimension; empty when absent.
  const std::vector<double>& Values(catalog::ResourceDim dim) const;

  /// Dimensions present, in enum order.
  std::vector<catalog::ResourceDim> PresentDims() const;

  /// Number of aligned samples (0 when no series installed).
  std::size_t num_samples() const { return num_samples_; }

  /// Assessment duration covered by the trace, in days.
  double DurationDays() const {
    return static_cast<double>(num_samples_) *
           static_cast<double>(interval_seconds_) / 86400.0;
  }

  /// Joint demand at sample `i` across the present dimensions.
  catalog::ResourceVector DemandAt(std::size_t i) const;

  /// Column-major demand matrix over `dims` (absent dimensions are
  /// skipped). The view borrows the trace's storage — it is valid only
  /// while the trace is alive and unmutated.
  DemandColumns Columns(const std::vector<catalog::ResourceDim>& dims) const;

  /// New trace holding the samples at `indices` (in the given order) for
  /// every present dimension; the bootstrap resampler drives this.
  PerfTrace Select(const std::vector<std::size_t>& indices) const;

  /// Contiguous window [start, start+count); clamped to the trace length.
  PerfTrace Window(std::size_t start, std::size_t count) const;

 private:
  static constexpr std::size_t Index(catalog::ResourceDim dim) {
    return static_cast<std::size_t>(static_cast<int>(dim));
  }

  std::string id_;
  std::int64_t interval_seconds_;
  std::uint64_t generation_ = 0;
  std::size_t num_samples_ = 0;
  std::array<std::vector<double>, catalog::kNumResourceDims> series_;
  std::array<bool, catalog::kNumResourceDims> present_{};
};

}  // namespace doppler::telemetry

#endif  // DOPPLER_TELEMETRY_PERF_TRACE_H_
