#ifndef DOPPLER_CORE_RECOMMENDER_H_
#define DOPPLER_CORE_RECOMMENDER_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "catalog/file_layout.h"
#include "catalog/pricing.h"
#include "core/mi_filter.h"
#include "core/price_performance.h"
#include "core/profiler.h"
#include "core/throttling.h"
#include "telemetry/perf_trace.h"
#include "telemetry/trace_stats.h"
#include "util/statusor.h"

namespace doppler::core {

/// The full answer Doppler surfaces for one workload: the optimal SKU plus
/// everything the Resource Use Module needs to explain the choice.
struct Recommendation {
  catalog::Sku sku;
  double monthly_cost = 0.0;
  /// Monotone throttling probability at the recommended point.
  double throttling_probability = 0.0;
  CurveShape curve_shape = CurveShape::kComplex;
  /// Enumeration group the customer profiled into (-1 when profiling was
  /// skipped, e.g. flat curves or the baseline strategy).
  int group_id = -1;
  /// The group's target probability used in Eqs. 4-6 (0 when unused).
  double group_target = 0.0;
  /// One-sentence explanation of why this SKU was picked.
  std::string rationale;
  /// Degraded-mode assessment (telemetry quality gate): profiling
  /// dimensions the trace never carried. The joint demand (Eq. 1) was
  /// narrowed to the collected dimensions, which can only understate
  /// throttling, so the recommendation's confidence is reduced.
  std::vector<catalog::ResourceDim> missing_profile_dims;
  /// True when missing_profile_dims is non-empty.
  bool degraded = false;
  /// The personalised rank behind the choice.
  PricePerformanceCurve curve;
};

/// The Doppler "elastic" strategy (paper §3): price-performance curve,
/// customer profiling, and the Eq. 4-6 selection against the learned group
/// target. Flat curves short-circuit to the cheapest fully satisfying SKU.
class ElasticRecommender {
 public:
  struct Options {
    /// Tolerance for treating performance as "100%".
    double full_satisfaction_epsilon = 0.01;
    /// Curve classification epsilon.
    double classify_epsilon = 0.01;
  };

  /// Serving-path constructor: all dependencies are borrowed and must
  /// outlive the recommender. The compiled snapshot carries the candidate
  /// sets, memoized prices, and the billing interface; the hot path does
  /// no catalog copies or sorts.
  ElasticRecommender(const catalog::CompiledCatalog* compiled,
                     const ThrottlingEstimator* estimator,
                     const CustomerProfiler* profiler,
                     const GroupModel* group_model, Options options);

  /// Default-options overload (a default argument of a nested aggregate
  /// cannot appear inside the enclosing class definition).
  ElasticRecommender(const catalog::CompiledCatalog* compiled,
                     const ThrottlingEstimator* estimator,
                     const CustomerProfiler* profiler,
                     const GroupModel* group_model);

  /// Recommendation for a workload migrating to Azure SQL DB. The curve is
  /// scored serially on the calling thread (DESIGN.md §9). A non-null
  /// `stats` cache (built over the same trace) is reused for profiling.
  StatusOr<Recommendation> RecommendDb(
      const telemetry::PerfTrace& trace,
      const telemetry::TraceStatsCache* stats = nullptr) const;

  /// Recommendation for a workload migrating to Azure SQL MI; the file
  /// layout drives premium-disk Steps 1-2.
  StatusOr<Recommendation> RecommendMi(
      const telemetry::PerfTrace& trace, const catalog::FileLayout& layout,
      const telemetry::TraceStatsCache* stats = nullptr) const;

  /// Deployment-dispatching convenience used by the DMA pipeline.
  StatusOr<Recommendation> Recommend(
      const telemetry::PerfTrace& trace, catalog::Deployment deployment,
      const catalog::FileLayout& layout,
      const telemetry::TraceStatsCache* stats = nullptr) const;

 private:
  StatusOr<Recommendation> SelectFromCurve(
      PricePerformanceCurve curve, const telemetry::PerfTrace& trace,
      const telemetry::TraceStatsCache* stats) const;

  const catalog::CompiledCatalog* compiled_;
  const ThrottlingEstimator* estimator_;
  const CustomerProfiler* profiler_;
  const GroupModel* group_model_;
  Options options_;
};

/// The pre-Doppler baseline (paper §2): collapse every counter series to a
/// scalar (a high quantile, default the 95th percentile; 1.0 = max) and
/// return the cheapest SKU whose capacities meet every scalar. Tends to
/// over-provision, and fails with NOT_FOUND when no SKU meets all maxima —
/// exactly the failure mode §5.3 reports.
class BaselineRecommender {
 public:
  /// Serving-path constructor over a borrowed compiled snapshot.
  explicit BaselineRecommender(const catalog::CompiledCatalog* compiled,
                               double quantile = 0.95);

  StatusOr<Recommendation> Recommend(
      const telemetry::PerfTrace& trace, catalog::Deployment deployment,
      const telemetry::TraceStatsCache* stats = nullptr) const;

  /// The scalar requirement the baseline derives per dimension. A non-null
  /// `stats` cache reads the quantiles from the memoized sorted series
  /// (bit-identical to sorting in place here).
  StatusOr<catalog::ResourceVector> ScalarRequirements(
      const telemetry::PerfTrace& trace,
      const telemetry::TraceStatsCache* stats = nullptr) const;

 private:
  const catalog::CompiledCatalog* compiled_;
  double quantile_;
};

}  // namespace doppler::core

#endif  // DOPPLER_CORE_RECOMMENDER_H_
