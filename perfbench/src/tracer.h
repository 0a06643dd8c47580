#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

// In-memory span recorder for the traced run. Spans are opened and closed
// by the benchmark's own code around each public call into a doppler layer
// (the library itself is not instrumented), on the single load-generating
// thread only, so nesting is a plain stack and child spans never overlap.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct Span {
  /// "<layer>.<call>", e.g. "dma.StageRecommend"; "bench.op" marks one op.
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< Index of the enclosing span, -1 at the root.
  std::uint64_t request = 0;
  /// The call was replayed on the op's inputs outside the op, because in
  /// the measured path it runs inside another layer's opaque call.
  bool replayed = false;
  bool failed = false;
  /// Work units the call covered (assessments rendered, bootstrap runs...);
  /// per-unit metrics divide by it.
  double units = 1.0;
  /// Call-specific measurement (curve size, bytes rendered, ...).
  double value = 0.0;

  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  static std::int64_t NsSinceEpoch(std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }
  static std::int64_t NowNs() {
    return NsSinceEpoch(std::chrono::steady_clock::now());
  }

  /// A disabled tracer records nothing and every scope is a no-op.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(std::string name, std::uint64_t request, bool replayed);
  void End(int index);
  Span* at(int index) { return index < 0 ? nullptr : &spans_[index]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by direct children.
  std::vector<double> SelfSeconds() const;

  /// One JSON object per span, with its self time.
  doppler::Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; `failed()` marks the call as failed before it closes.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t request = 0,
             bool replayed = false)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        index_(tracer_ == nullptr
                   ? -1
                   : tracer_->Begin(std::move(name), request, replayed)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_failed(bool failed) {
    if (tracer_ != nullptr) tracer_->at(index_)->failed = failed;
  }
  void set_units(double units) {
    if (tracer_ != nullptr) tracer_->at(index_)->units = units;
  }
  void set_value(double value) {
    if (tracer_ != nullptr) tracer_->at(index_)->value = value;
  }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
