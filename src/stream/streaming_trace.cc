#include "stream/streaming_trace.h"

#include <algorithm>

namespace doppler::stream {

StreamingTrace::StreamingTrace(const std::vector<catalog::ResourceDim>& dims,
                               std::size_t capacity,
                               std::int64_t interval_seconds)
    : capacity_(std::max<std::size_t>(1, capacity)),
      interval_seconds_(interval_seconds) {
  for (catalog::ResourceDim dim : catalog::kAllResourceDims) {
    if (std::find(dims.begin(), dims.end(), dim) == dims.end()) continue;
    dims_.push_back(dim);
    present_[Index(dim)] = true;
    ring_[Index(dim)].assign(capacity_, 0.0);
  }
}

StatusOr<std::uint64_t> StreamingTrace::Append(const std::vector<double>& row) {
  if (full()) {
    return FailedPreconditionError(
        "streaming window is full (" + std::to_string(capacity_) +
        " rows); evict before appending");
  }
  if (row.size() != dims_.size()) {
    return InvalidArgumentError(
        "row has " + std::to_string(row.size()) + " values; window has " +
        std::to_string(dims_.size()) + " dimensions");
  }
  const std::uint64_t seq = next_seq_;
  const std::size_t slot = SlotOf(seq);
  for (std::size_t k = 0; k < dims_.size(); ++k) {
    ring_[Index(dims_[k])][slot] = row[k];
  }
  ++next_seq_;
  return seq;
}

Status StreamingTrace::PopFront() {
  if (empty()) {
    return FailedPreconditionError("streaming window is empty");
  }
  ++first_seq_;
  return OkStatus();
}

double StreamingTrace::Mean(catalog::ResourceDim dim) const {
  if (empty()) return 0.0;
  double sum = 0.0;
  for (std::uint64_t seq = first_seq_; seq < next_seq_; ++seq) {
    sum += ValueAt(dim, seq);
  }
  return sum / static_cast<double>(size());
}

telemetry::PerfTrace StreamingTrace::Materialize() const {
  telemetry::PerfTrace trace(interval_seconds_);
  trace.set_id(id_);
  const std::size_t n = size();
  for (catalog::ResourceDim dim : dims_) {
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = ValueAt(dim, first_seq_ + i);
    }
    // All columns share one length; SetSeries cannot fail here.
    (void)trace.SetSeries(dim, std::move(values));
  }
  return trace;
}

}  // namespace doppler::stream
