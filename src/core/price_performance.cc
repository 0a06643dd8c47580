#include "core/price_performance.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace doppler::core {

const char* CurveShapeName(CurveShape shape) {
  switch (shape) {
    case CurveShape::kFlat:
      return "flat";
    case CurveShape::kSimple:
      return "simple";
    case CurveShape::kComplex:
      return "complex";
  }
  return "?";
}

// Uniform accessor over the two compiled candidate sources: a whole
// deployment view (no IOPS overrides) or a filtered ref list (MI path).
// Avoids materialising a ref vector for the common DB route.
struct PricePerformanceCurve::CompiledSpan {
  const catalog::CompiledEntry* entries = nullptr;
  const CompiledCandidateRef* refs = nullptr;
  std::size_t count = 0;
  /// The target whose reprice_for_trace hook applies; nullptr = none.
  const catalog::TargetSpec* target = nullptr;

  const catalog::CompiledEntry& entry(std::size_t i) const {
    return refs != nullptr ? *refs[i].entry : entries[i];
  }
  double iops_limit(std::size_t i) const {
    return refs != nullptr ? refs[i].iops_limit : -1.0;
  }
};

StatusOr<PricePerformanceCurve> PricePerformanceCurve::BuildCompiled(
    const telemetry::PerfTrace& trace, const CompiledSpan& span,
    const catalog::PricingService& pricing,
    const ThrottlingEstimator& estimator, exec::ThreadPool* executor) {
  if (span.count == 0) {
    return InvalidArgumentError("no candidate SKUs for curve building");
  }
  if (trace.num_samples() == 0) {
    return InvalidArgumentError("performance trace is empty");
  }
  DOPPLER_TRACE_SPAN("ppm.curve_build");
  static obs::Counter* const kSkusEvaluated =
      obs::DefaultMetrics().GetCounter("ppm.skus_evaluated");
  kSkusEvaluated->Increment(span.count);
  DOPPLER_LOG(kDebug) << "building price-performance curve over " << span.count
                      << " compiled SKUs, " << trace.num_samples()
                      << " samples";

  // Mean CPU demand feeds the target's per-trace repricing hook (usage-
  // billed serverless SKUs); 0 when the trace carries no CPU counter
  // (pricing then assumes the worst case).
  double mean_cpu = 0.0;
  if (trace.Has(catalog::ResourceDim::kCpu)) {
    const std::vector<double>& cpu = trace.Values(catalog::ResourceDim::kCpu);
    for (double v : cpu) mean_cpu += v;
    mean_cpu /= static_cast<double>(cpu.size());
  }
  const catalog::RepriceForTraceFn reprice =
      span.target != nullptr ? span.target->reprice_for_trace : nullptr;

  // One scan per candidate over the memoized capacity vectors (with the MI
  // route's per-candidate IOPS overrides applied first).
  std::vector<catalog::ResourceVector> capacity_vectors;
  capacity_vectors.reserve(span.count);
  for (std::size_t i = 0; i < span.count; ++i) {
    const catalog::CompiledEntry& entry = span.entry(i);
    const double iops_limit = span.iops_limit(i);
    capacity_vectors.push_back(
        iops_limit >= 0.0 ? entry.sku->CapacitiesWithIopsLimit(iops_limit)
                          : entry.capacities);
  }
  DOPPLER_ASSIGN_OR_RETURN(const std::vector<double> probabilities,
                           estimator.EstimateCurveProbabilities(
                               trace, capacity_vectors, executor));

  PricePerformanceCurve curve;
  std::vector<PricePerformancePoint>& points = curve.points_;
  points.resize(span.count);
  // A hook re-price (negative return = keep the compiled price)
  // invalidates the memoized price order; when every candidate keeps its
  // compiled price the pre-sorted order stands and the sort is skipped.
  bool repriced = false;
  for (std::size_t i = 0; i < span.count; ++i) {
    const catalog::CompiledEntry& entry = span.entry(i);
    PricePerformancePoint& point = points[i];
    point.sku = *entry.sku;
    const double hook_price =
        reprice != nullptr ? reprice(*entry.sku, mean_cpu, pricing) : -1.0;
    point.monthly_price = hook_price >= 0.0 ? hook_price : entry.monthly_price;
    repriced |= hook_price >= 0.0;
    point.throttling_probability = probabilities[i];
    point.performance = 1.0 - probabilities[i];
  }

  if (repriced) {
    // Same (monthly price, id) comparator the compile step sorted by;
    // compiled entries arrive pre-sorted, so the sort is needed only when
    // a hook re-price perturbed the order.
    std::sort(
        points.begin(), points.end(),
        [](const PricePerformancePoint& a, const PricePerformancePoint& b) {
          if (a.monthly_price != b.monthly_price) {
            return a.monthly_price < b.monthly_price;
          }
          return a.sku.id < b.sku.id;
        });
  }

  double best = 0.0;
  for (PricePerformancePoint& point : points) {
    best = std::max(best, point.performance);
    point.performance = best;
  }
  return curve;
}

StatusOr<PricePerformanceCurve> PricePerformanceCurve::Build(
    const telemetry::PerfTrace& trace, catalog::CompiledView candidates,
    const catalog::PricingService& pricing,
    const ThrottlingEstimator& estimator, exec::ThreadPool* executor) {
  CompiledSpan span;
  span.entries = candidates.begin();
  span.count = candidates.size();
  span.target = candidates.target();
  return BuildCompiled(trace, span, pricing, estimator, executor);
}

StatusOr<PricePerformanceCurve> PricePerformanceCurve::Build(
    const telemetry::PerfTrace& trace,
    const std::vector<CompiledCandidateRef>& candidates,
    const catalog::PricingService& pricing,
    const ThrottlingEstimator& estimator, const catalog::TargetSpec* target) {
  CompiledSpan span;
  span.refs = candidates.data();
  span.count = candidates.size();
  span.target = target;
  return BuildCompiled(trace, span, pricing, estimator, /*executor=*/nullptr);
}

CurveShape PricePerformanceCurve::Classify(double epsilon) const {
  bool all_full = true;
  bool all_extreme = true;
  for (const PricePerformancePoint& point : points_) {
    const bool full = point.performance >= 1.0 - epsilon;
    const bool empty_perf = point.performance <= epsilon;
    all_full &= full;
    all_extreme &= (full || empty_perf);
  }
  if (all_full) return CurveShape::kFlat;
  if (all_extreme) return CurveShape::kSimple;
  return CurveShape::kComplex;
}

StatusOr<PricePerformancePoint> PricePerformanceCurve::CheapestFullySatisfying(
    double epsilon) const {
  for (const PricePerformancePoint& point : points_) {
    if (point.performance >= 1.0 - epsilon) return point;
  }
  return NotFoundError("no SKU satisfies the workload at 100%");
}

StatusOr<PricePerformancePoint> PricePerformanceCurve::ClosestBelowTarget(
    double target) const {
  if (points_.empty()) return NotFoundError("curve is empty");

  const PricePerformancePoint* best = nullptr;
  double best_gap = std::numeric_limits<double>::infinity();
  for (const PricePerformancePoint& point : points_) {
    const double p = point.MonotoneProbability();
    if (p > target) continue;
    const double gap = target - p;
    // Strict inequality keeps the cheaper point on ties (price order).
    if (gap < best_gap) {
      best_gap = gap;
      best = &point;
    }
  }
  if (best != nullptr) return *best;

  // Nothing satisfies the constraint (Eq. 6); fall back to the most
  // performant point, cheapest among equals.
  const PricePerformancePoint* fallback = &points_.front();
  for (const PricePerformancePoint& point : points_) {
    if (point.performance > fallback->performance) fallback = &point;
  }
  return *fallback;
}

StatusOr<PricePerformancePoint> PricePerformanceCurve::FindSku(
    const std::string& sku_id) const {
  for (const PricePerformancePoint& point : points_) {
    if (point.sku.id == sku_id) return point;
  }
  return NotFoundError("SKU '" + sku_id + "' is not on the curve");
}

StatusOr<std::size_t> PricePerformanceCurve::IndexOfSku(
    const std::string& sku_id) const {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].sku.id == sku_id) return i;
  }
  return NotFoundError("SKU '" + sku_id + "' is not on the curve");
}

std::vector<double> PricePerformanceCurve::Prices() const {
  std::vector<double> prices;
  prices.reserve(points_.size());
  for (const auto& point : points_) prices.push_back(point.monthly_price);
  return prices;
}

std::vector<double> PricePerformanceCurve::Performances() const {
  std::vector<double> performances;
  performances.reserve(points_.size());
  for (const auto& point : points_) performances.push_back(point.performance);
  return performances;
}

}  // namespace doppler::core
