#include "stream/stream_stats.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "stats/descriptive.h"

namespace doppler::stream {

namespace {

// One sorted-vector slot patched (inserted or erased). The bench baseline
// locks this counter's per-tick rate: a regression that silently falls
// back to rebuild-per-tick charges the whole window instead of one slot
// per dimension and fails `check.sh --bench`.
void CountRowsPatched(std::size_t slots) {
  static obs::Counter* const kPatched =
      obs::DefaultMetrics().GetCounter("stream.rows_patched");
  kPatched->Increment(slots);
}

}  // namespace

StreamStats::StreamStats(const StreamingTrace* trace) : trace_(trace) {}

void StreamStats::OnAppend(std::uint64_t seq) {
  for (catalog::ResourceDim dim : trace_->dims()) {
    std::vector<double>& sorted = dims_[Index(dim)].sorted_values;
    const double value = trace_->ValueAt(dim, seq);
    // Rows arrive in seq order, so this one is the newest so far: last of
    // its tie run.
    sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), value),
                  value);
  }
  CountRowsPatched(trace_->dims().size());
}

void StreamStats::OnEvict(std::uint64_t seq) {
  // Eviction is FIFO: the departing row is the oldest live one, so it
  // heads its tie run.
  assert(seq == trace_->first_seq());
  for (catalog::ResourceDim dim : trace_->dims()) {
    std::vector<double>& sorted = dims_[Index(dim)].sorted_values;
    const double value = trace_->ValueAt(dim, seq);
    sorted.erase(std::lower_bound(sorted.begin(), sorted.end(), value));
  }
  CountRowsPatched(trace_->dims().size());
}

double StreamStats::Quantile(catalog::ResourceDim dim, double q) const {
  return stats::QuantileFromSorted(dims_[Index(dim)].sorted_values, q);
}

const StreamStats::DimState& StreamStats::Moments(
    catalog::ResourceDim dim) const {
  DimState& state = dims_[Index(dim)];
  if (state.moments_built &&
      state.moments_generation == trace_->generation()) {
    return state;
  }
  // Materialise in seq (== window) order and reuse the exact stats::
  // routines: running sums would drift from the rebuild path in the last
  // ulps, and the differential harness asserts bit-identity.
  moments_scratch_.clear();
  moments_scratch_.reserve(trace_->size());
  for (std::uint64_t seq = trace_->first_seq(); seq < trace_->next_seq();
       ++seq) {
    moments_scratch_.push_back(trace_->ValueAt(dim, seq));
  }
  state.mean = stats::Mean(moments_scratch_);
  state.stddev = stats::StdDev(moments_scratch_);
  state.moments_built = true;
  state.moments_generation = trace_->generation();
  return state;
}

double StreamStats::Mean(catalog::ResourceDim dim) const {
  return Moments(dim).mean;
}

double StreamStats::StdDev(catalog::ResourceDim dim) const {
  return Moments(dim).stddev;
}

double StreamStats::Min(catalog::ResourceDim dim) const {
  const DimState& state = dims_[Index(dim)];
  return state.sorted_values.empty() ? 0.0 : state.sorted_values.front();
}

double StreamStats::Max(catalog::ResourceDim dim) const {
  const DimState& state = dims_[Index(dim)];
  return state.sorted_values.empty() ? 0.0 : state.sorted_values.back();
}

}  // namespace doppler::stream
