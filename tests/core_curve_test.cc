// Unit and property tests for the throttling estimators, price-performance
// curves, curve heuristics, and the MI premium-disk filter.

#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "core/heuristics.h"
#include "core/mi_filter.h"
#include "core/price_performance.h"
#include "core/throttling.h"
#include "util/random.h"
#include "workload/generator.h"

namespace doppler::core {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;
using catalog::ResourceVector;
using catalog::ServiceTier;
using catalog::Sku;

telemetry::PerfTrace CpuTrace(std::vector<double> values) {
  telemetry::PerfTrace trace;
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kCpu, std::move(values)).ok());
  return trace;
}

ResourceVector CpuCap(double cap) {
  ResourceVector capacities;
  capacities.Set(ResourceDim::kCpu, cap);
  return capacities;
}

// Compiles an ad-hoc SKU list into a snapshot so these tests exercise the
// same compiled path production uses; `pricing` must outlive the result.
catalog::CompiledCatalog CompileSkus(std::vector<Sku> skus,
                                     const catalog::PricingService* pricing) {
  catalog::SkuCatalog cat;
  for (Sku& sku : skus) cat.Add(std::move(sku));
  return catalog::CompiledCatalog::Compile(std::move(cat), pricing);
}

catalog::CompiledView DbView(const catalog::CompiledCatalog& compiled) {
  return compiled.ForDeployment(Deployment::kSqlDb).view();
}

// ------------------------------------------------------------ Estimators.

TEST(NonParametricTest, ExactFrequency) {
  const telemetry::PerfTrace trace = CpuTrace({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  const NonParametricEstimator estimator;
  StatusOr<double> p = estimator.Probability(trace, CpuCap(7.0));
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.3);  // 8, 9, 10 exceed.
  p = estimator.Probability(trace, CpuCap(0.5));
  EXPECT_DOUBLE_EQ(*p, 1.0);
  p = estimator.Probability(trace, CpuCap(100.0));
  EXPECT_DOUBLE_EQ(*p, 0.0);
}

TEST(NonParametricTest, UnionAcrossDims) {
  telemetry::PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, {1, 9, 1, 1}).ok());
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kIops, {10, 10, 900, 10}).ok());
  ResourceVector caps;
  caps.Set(ResourceDim::kCpu, 5.0);
  caps.Set(ResourceDim::kIops, 500.0);
  const NonParametricEstimator estimator;
  StatusOr<double> p = estimator.Probability(trace, caps);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.5);  // Samples 1 and 2 throttle on different dims.
}

TEST(NonParametricTest, LatencyDimensionInverted) {
  telemetry::PerfTrace trace;
  // Workload observed 2ms latency half the time, 8ms the other half.
  ASSERT_TRUE(
      trace.SetSeries(ResourceDim::kIoLatencyMs, {2, 8, 2, 8}).ok());
  ResourceVector caps;
  caps.Set(ResourceDim::kIoLatencyMs, 5.0);  // GP floor.
  const NonParametricEstimator estimator;
  StatusOr<double> p = estimator.Probability(trace, caps);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.5);  // The 2ms samples need better than the floor.
}

TEST(NonParametricTest, IgnoresDimsMissingFromEitherSide) {
  telemetry::PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, {1, 1}).ok());
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kMemoryGb, {999, 999}).ok());
  ResourceVector caps = CpuCap(5.0);  // No memory capacity given.
  const NonParametricEstimator estimator;
  StatusOr<double> p = estimator.Probability(trace, caps);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.0);
}

TEST(NonParametricTest, ErrorsOnDegenerateInputs) {
  const NonParametricEstimator estimator;
  EXPECT_FALSE(estimator.Probability(telemetry::PerfTrace(), CpuCap(1)).ok());
  telemetry::PerfTrace trace = CpuTrace({1});
  ResourceVector no_shared;
  no_shared.Set(ResourceDim::kIops, 100.0);
  EXPECT_FALSE(estimator.Probability(trace, no_shared).ok());
}

TEST(KdeTest, SmoothsAroundThreshold) {
  Rng rng(1);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.Normal(4.0, 1.0));
  const telemetry::PerfTrace trace = CpuTrace(values);
  const KdeEstimator estimator;
  StatusOr<double> p = estimator.Probability(trace, CpuCap(4.0));
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.5, 0.05);
  p = estimator.Probability(trace, CpuCap(8.0));
  EXPECT_LT(*p, 0.01);
}

TEST(KdeTest, AgreesWithNonParametricAwayFromTail) {
  Rng rng(2);
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) values.push_back(rng.LogNormal(1.0, 0.5));
  const telemetry::PerfTrace trace = CpuTrace(values);
  const NonParametricEstimator exact;
  const KdeEstimator smooth;
  for (double cap : {2.0, 3.0, 4.0, 6.0}) {
    StatusOr<double> pe = exact.Probability(trace, CpuCap(cap));
    StatusOr<double> ps = smooth.Probability(trace, CpuCap(cap));
    ASSERT_TRUE(pe.ok());
    ASSERT_TRUE(ps.ok());
    EXPECT_NEAR(*pe, *ps, 0.05) << "cap " << cap;
  }
}

TEST(KdeTest, LatencyInversionHandled) {
  telemetry::PerfTrace trace;
  std::vector<double> latency(500, 8.0);
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kIoLatencyMs, latency).ok());
  ResourceVector caps;
  caps.Set(ResourceDim::kIoLatencyMs, 5.0);
  const KdeEstimator estimator;
  StatusOr<double> p = estimator.Probability(trace, caps);
  ASSERT_TRUE(p.ok());
  EXPECT_LT(*p, 0.05);  // 8ms observed, 5ms floor: fine.
  caps.Set(ResourceDim::kIoLatencyMs, 20.0);
  p = estimator.Probability(trace, caps);
  EXPECT_GT(*p, 0.95);  // A 20ms floor throttles an 8ms workload.
}

// ---------------------------------------------------------------- Curves.

std::vector<Sku> LadderSkus() {
  // Five synthetic SKUs with increasing CPU capacity and price.
  std::vector<Sku> skus;
  for (int i = 1; i <= 5; ++i) {
    Sku sku;
    sku.id = "L" + std::to_string(i);
    sku.vcores = 2 * i;
    sku.max_memory_gb = 1000;
    sku.max_iops = 1e9;
    sku.max_log_rate_mbps = 1e9;
    sku.min_io_latency_ms = 0.0;
    sku.max_data_gb = 1e9;
    sku.price_per_hour = 0.5 * i;
    skus.push_back(sku);
  }
  return skus;
}

TEST(CurveTest, PointsSortedByPriceAndMonotone) {
  Rng rng(3);
  std::vector<double> cpu;
  for (int i = 0; i < 1000; ++i) cpu.push_back(rng.Uniform(0.0, 12.0));
  const telemetry::PerfTrace trace = CpuTrace(cpu);
  const catalog::DefaultPricing pricing;
  const NonParametricEstimator estimator;
  const catalog::CompiledCatalog compiled = CompileSkus(LadderSkus(), &pricing);
  StatusOr<PricePerformanceCurve> curve =
      PricePerformanceCurve::Build(trace, DbView(compiled), pricing, estimator);
  ASSERT_TRUE(curve.ok());
  ASSERT_EQ(curve->size(), 5u);
  for (std::size_t i = 1; i < curve->size(); ++i) {
    EXPECT_LE(curve->points()[i - 1].monthly_price,
              curve->points()[i].monthly_price);
    EXPECT_LE(curve->points()[i - 1].performance,
              curve->points()[i].performance);
  }
  // Bigger SKUs genuinely perform better on a uniform load.
  EXPECT_LT(curve->points().front().performance,
            curve->points().back().performance);
}

TEST(CurveTest, MonotoneEnvelopeLiftsDominatedPoints) {
  // A cheap huge SKU followed by pricier small SKUs: the envelope keeps
  // performance non-decreasing in price.
  std::vector<Sku> skus = LadderSkus();
  skus[0].vcores = 100;  // Cheapest is the biggest.
  const telemetry::PerfTrace trace = CpuTrace(std::vector<double>(100, 11.0));
  const catalog::DefaultPricing pricing;
  const NonParametricEstimator estimator;
  const catalog::CompiledCatalog compiled =
      CompileSkus(std::move(skus), &pricing);
  StatusOr<PricePerformanceCurve> curve =
      PricePerformanceCurve::Build(trace, DbView(compiled), pricing, estimator);
  ASSERT_TRUE(curve.ok());
  for (const PricePerformancePoint& point : curve->points()) {
    EXPECT_DOUBLE_EQ(point.performance, 1.0);
  }
  // Raw probabilities are preserved for the pricier, smaller SKUs.
  EXPECT_GT(curve->points()[1].throttling_probability, 0.9);
}

TEST(CurveTest, ClassifiesFlatSimpleComplex) {
  const catalog::DefaultPricing pricing;
  const NonParametricEstimator estimator;
  const catalog::CompiledCatalog compiled = CompileSkus(LadderSkus(), &pricing);

  // Flat: trivial demand.
  StatusOr<PricePerformanceCurve> flat = PricePerformanceCurve::Build(
      CpuTrace(std::vector<double>(100, 0.5)), DbView(compiled), pricing,
      estimator);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->Classify(), CurveShape::kFlat);

  // Simple: constant demand of 5 cores splits the ladder 0%/100%.
  StatusOr<PricePerformanceCurve> simple = PricePerformanceCurve::Build(
      CpuTrace(std::vector<double>(100, 5.0)), DbView(compiled), pricing,
      estimator);
  ASSERT_TRUE(simple.ok());
  EXPECT_EQ(simple->Classify(), CurveShape::kSimple);

  // Complex: spread demand gives intermediate probabilities.
  Rng rng(4);
  std::vector<double> spread;
  for (int i = 0; i < 1000; ++i) spread.push_back(rng.Uniform(0.0, 12.0));
  StatusOr<PricePerformanceCurve> complex_curve = PricePerformanceCurve::Build(
      CpuTrace(spread), DbView(compiled), pricing, estimator);
  ASSERT_TRUE(complex_curve.ok());
  EXPECT_EQ(complex_curve->Classify(), CurveShape::kComplex);
}

TEST(CurveTest, CheapestFullySatisfying) {
  const catalog::DefaultPricing pricing;
  const NonParametricEstimator estimator;
  const catalog::CompiledCatalog compiled = CompileSkus(LadderSkus(), &pricing);
  StatusOr<PricePerformanceCurve> curve = PricePerformanceCurve::Build(
      CpuTrace(std::vector<double>(100, 5.0)), DbView(compiled), pricing,
      estimator);
  ASSERT_TRUE(curve.ok());
  StatusOr<PricePerformancePoint> point = curve->CheapestFullySatisfying();
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->sku.id, "L3");  // 6 cores is the first >= 5.

  // Nothing satisfies a 100-core demand.
  StatusOr<PricePerformanceCurve> hopeless = PricePerformanceCurve::Build(
      CpuTrace(std::vector<double>(100, 100.0)), DbView(compiled), pricing,
      estimator);
  ASSERT_TRUE(hopeless.ok());
  EXPECT_EQ(hopeless->CheapestFullySatisfying().status().code(),
            StatusCode::kNotFound);
}

TEST(CurveTest, ClosestBelowTargetImplementsEq456) {
  Rng rng(5);
  std::vector<double> spread;
  for (int i = 0; i < 2000; ++i) spread.push_back(rng.Uniform(0.0, 12.0));
  const catalog::DefaultPricing pricing;
  const NonParametricEstimator estimator;
  const catalog::CompiledCatalog compiled = CompileSkus(LadderSkus(), &pricing);
  StatusOr<PricePerformanceCurve> curve = PricePerformanceCurve::Build(
      CpuTrace(spread), DbView(compiled), pricing, estimator);
  ASSERT_TRUE(curve.ok());

  StatusOr<PricePerformancePoint> pick = curve->ClosestBelowTarget(0.5);
  ASSERT_TRUE(pick.ok());
  EXPECT_LE(pick->MonotoneProbability(), 0.5);
  // No cheaper point sits closer below the target.
  for (const PricePerformancePoint& point : curve->points()) {
    if (point.MonotoneProbability() <= 0.5) {
      EXPECT_LE(0.5 - pick->MonotoneProbability(),
                0.5 - point.MonotoneProbability() + 1e-12);
    }
  }

  // Unreachable target: fall back to the most performant point.
  const telemetry::PerfTrace heavy = CpuTrace(std::vector<double>(100, 50.0));
  StatusOr<PricePerformanceCurve> throttled_curve = PricePerformanceCurve::Build(
      heavy, DbView(compiled), pricing, estimator);
  ASSERT_TRUE(throttled_curve.ok());
  StatusOr<PricePerformancePoint> fallback =
      throttled_curve->ClosestBelowTarget(0.001);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->sku.id, "L1");  // All identical (prob 1); cheapest.
}

TEST(CurveTest, FindAndIndexBySku) {
  const catalog::DefaultPricing pricing;
  const NonParametricEstimator estimator;
  const catalog::CompiledCatalog compiled = CompileSkus(LadderSkus(), &pricing);
  StatusOr<PricePerformanceCurve> curve = PricePerformanceCurve::Build(
      CpuTrace(std::vector<double>(10, 1.0)), DbView(compiled), pricing,
      estimator);
  ASSERT_TRUE(curve.ok());
  StatusOr<std::size_t> index = curve->IndexOfSku("L2");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 1u);
  EXPECT_FALSE(curve->FindSku("nope").ok());
}

TEST(CurveTest, RejectsEmptyInputs) {
  const catalog::DefaultPricing pricing;
  const NonParametricEstimator estimator;
  const catalog::CompiledCatalog empty = CompileSkus({}, &pricing);
  EXPECT_FALSE(PricePerformanceCurve::Build(CpuTrace({1.0}), DbView(empty),
                                            pricing, estimator)
                   .ok());
  const catalog::CompiledCatalog ladder = CompileSkus(LadderSkus(), &pricing);
  EXPECT_FALSE(PricePerformanceCurve::Build(telemetry::PerfTrace(),
                                            DbView(ladder), pricing, estimator)
                   .ok());
}

TEST(CurveTest, MiIopsOverrideChangesProbability) {
  telemetry::PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kIops,
                              std::vector<double>(100, 1200.0)).ok());
  Sku sku;
  sku.id = "MI";
  sku.max_iops = 5000.0;  // Record says plenty.
  sku.price_per_hour = 1.0;
  const catalog::DefaultPricing pricing;
  const NonParametricEstimator estimator;
  const catalog::CompiledCatalog compiled = CompileSkus({sku}, &pricing);
  const catalog::CompiledView view = DbView(compiled);
  ASSERT_EQ(view.size(), 1u);

  StatusOr<PricePerformanceCurve> with_record =
      PricePerformanceCurve::Build(trace, view, pricing, estimator);
  ASSERT_TRUE(with_record.ok());
  EXPECT_DOUBLE_EQ(with_record->points()[0].throttling_probability, 0.0);

  // One P10 file: 500 IOPS effective -> always throttled.
  const std::vector<CompiledCandidateRef> overridden = {{&view[0], 500.0}};
  StatusOr<PricePerformanceCurve> with_layout = PricePerformanceCurve::Build(
      trace, overridden, pricing, estimator, &compiled.target());
  ASSERT_TRUE(with_layout.ok());
  EXPECT_DOUBLE_EQ(with_layout->points()[0].throttling_probability, 1.0);
}

// ------------------------------------------------------------ Heuristics.

// Builds a curve with prescribed (price, probability) points by abusing a
// one-dimensional trace: we reconstruct via Build on crafted SKUs so the
// envelope applies as in production.
PricePerformanceCurve CraftedCurve(const std::vector<double>& caps,
                                   const std::vector<double>& prices,
                                   const std::vector<double>& cpu_demand) {
  std::vector<Sku> skus;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    Sku sku;
    sku.id = "C" + std::to_string(i);
    sku.vcores = 1;
    sku.max_memory_gb = 1e9;
    sku.max_iops = 1e9;
    sku.max_log_rate_mbps = 1e9;
    sku.min_io_latency_ms = 0.0;
    sku.max_data_gb = 1e9;
    sku.price_per_hour = prices[i];
    // Use memory as the constrained dim to allow fractional capacities.
    sku.max_memory_gb = caps[i];
    skus.push_back(sku);
  }
  telemetry::PerfTrace trace;
  std::vector<double> memory = cpu_demand;
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kMemoryGb, std::move(memory)).ok());
  const catalog::DefaultPricing pricing;
  const NonParametricEstimator estimator;
  const catalog::CompiledCatalog compiled =
      CompileSkus(std::move(skus), &pricing);
  StatusOr<PricePerformanceCurve> curve = PricePerformanceCurve::Build(
      trace, DbView(compiled), pricing, estimator);
  EXPECT_TRUE(curve.ok());
  return *std::move(curve);
}

TEST(HeuristicsTest, ThreeHeuristicsDisagreeOnComplexCurve) {
  // Demand quantiles: 40% <=2, then 20% each at 4, 6, 10.
  std::vector<double> demand;
  for (int i = 0; i < 40; ++i) demand.push_back(1.5);
  for (int i = 0; i < 20; ++i) demand.push_back(3.5);
  for (int i = 0; i < 20; ++i) demand.push_back(5.5);
  for (int i = 0; i < 20; ++i) demand.push_back(9.5);
  const PricePerformanceCurve curve = CraftedCurve(
      {2, 4, 6, 8, 10}, {0.5, 1.0, 1.5, 2.0, 2.5}, demand);

  StatusOr<PricePerformancePoint> lpi = LargestPerformanceIncrease(curve);
  StatusOr<PricePerformancePoint> slope = LargestSlope(curve);
  StatusOr<PricePerformancePoint> threshold =
      PerformanceThreshold(curve, 0.95);
  ASSERT_TRUE(lpi.ok());
  ASSERT_TRUE(slope.ok());
  ASSERT_TRUE(threshold.ok());
  // The whole point of §3.2's "Limitation": they disagree.
  EXPECT_NE(slope->sku.id, threshold->sku.id);
}

TEST(HeuristicsTest, LargestPerformanceIncreaseStopsAtPlateau) {
  // Probabilities: 0.6, 0.2, 0.2, 0.0 -> plateau between index 1 and 2.
  std::vector<double> demand;
  for (int i = 0; i < 40; ++i) demand.push_back(0.5);   // <= all caps.
  for (int i = 0; i < 40; ++i) demand.push_back(1.5);   // > cap 1 only.
  for (int i = 0; i < 20; ++i) demand.push_back(3.5);   // > caps 1..3.
  const PricePerformanceCurve curve =
      CraftedCurve({1, 2, 3, 4}, {0.5, 1.0, 1.5, 2.0}, demand);
  StatusOr<PricePerformancePoint> pick = LargestPerformanceIncrease(curve);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(pick->sku.id, "C1");  // The first point before a <=eps step.
}

TEST(HeuristicsTest, PerformanceThresholdPicksFirstAboveGamma) {
  std::vector<double> demand;
  for (int i = 0; i < 90; ++i) demand.push_back(0.5);
  for (int i = 0; i < 10; ++i) demand.push_back(2.5);
  const PricePerformanceCurve curve =
      CraftedCurve({1, 2, 3}, {0.5, 1.0, 1.5}, demand);
  // Probabilities: C0 10%+90%*0? caps: 1 -> demand 2.5 exceeds; also 0.5<1.
  // C0: P=0.1; C1: P=0.1; C2: P=0.
  StatusOr<PricePerformancePoint> pick = PerformanceThreshold(curve, 0.95);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(pick->sku.id, "C2");
  // Gamma 0.85 is met by the cheapest already.
  pick = PerformanceThreshold(curve, 0.85);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(pick->sku.id, "C0");
  EXPECT_FALSE(PerformanceThreshold(curve, 1.0 + 1e-9).ok());
}

TEST(HeuristicsTest, EmptyCurveRejected) {
  PricePerformanceCurve empty;
  EXPECT_FALSE(LargestPerformanceIncrease(empty).ok());
  EXPECT_FALSE(LargestSlope(empty).ok());
}

// --------------------------------------------------------------- MI filter.

class MiFilterFixture : public ::testing::Test {
 protected:
  MiFilterFixture()
      : compiled_(catalog::CompiledCatalog::Compile(
            catalog::BuildAzureLikeCatalog(), &pricing_)) {}

  telemetry::PerfTrace TraceWithIops(double iops, double storage) {
    telemetry::PerfTrace trace;
    EXPECT_TRUE(trace.SetSeries(ResourceDim::kIops,
                                std::vector<double>(200, iops)).ok());
    EXPECT_TRUE(trace.SetSeries(ResourceDim::kStorageGb,
                                std::vector<double>(200, storage)).ok());
    return trace;
  }

  catalog::DefaultPricing pricing_;
  catalog::CompiledCatalog compiled_;
};

TEST_F(MiFilterFixture, GpCandidatesGetLayoutIopsSum) {
  // 3 x 100 GiB files -> 3 x P10 -> 1500 IOPS; demand 1000 IOPS: 100%
  // satisfied.
  const catalog::FileLayout layout = catalog::UniformLayout(300.0, 3);
  StatusOr<MiCompiledFilterResult> result = FilterMiCandidates(
      compiled_, layout, TraceWithIops(1000.0, 300.0));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->restricted_to_bc);
  EXPECT_DOUBLE_EQ(result->layout_limits.total_iops, 1500.0);
  bool saw_gp = false;
  for (const CompiledCandidateRef& candidate : result->candidates) {
    if (candidate.entry->sku->tier == ServiceTier::kGeneralPurpose) {
      saw_gp = true;
      EXPECT_DOUBLE_EQ(candidate.iops_limit, 1500.0);
    } else {
      EXPECT_LT(candidate.iops_limit, 0.0);  // BC keeps its record.
    }
  }
  EXPECT_TRUE(saw_gp);
}

TEST_F(MiFilterFixture, IopsShortfallRestrictsToBc) {
  // One 100 GiB file -> P10 -> 500 IOPS; demand 5000 IOPS misses 95%.
  const catalog::FileLayout layout = catalog::UniformLayout(100.0, 1);
  StatusOr<MiCompiledFilterResult> result =
      FilterMiCandidates(compiled_, layout, TraceWithIops(5000.0, 100.0));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->restricted_to_bc);
  for (const CompiledCandidateRef& candidate : result->candidates) {
    EXPECT_EQ(candidate.entry->sku->tier, ServiceTier::kBusinessCritical);
  }
}

TEST_F(MiFilterFixture, StorageRequirementFiltersSmallSkus) {
  // A 5 TB estate: only SKUs with >= 5 TB max data survive.
  const catalog::FileLayout layout = catalog::UniformLayout(5000.0, 4);
  StatusOr<MiCompiledFilterResult> result =
      FilterMiCandidates(compiled_, layout, TraceWithIops(2000.0, 5000.0));
  ASSERT_TRUE(result.ok());
  for (const CompiledCandidateRef& candidate : result->candidates) {
    EXPECT_GE(candidate.entry->sku->max_data_gb, 5000.0);
  }
}

TEST_F(MiFilterFixture, UnplaceableLayoutFails) {
  catalog::FileLayout layout;
  layout.files = {{"huge.mdf", 9000.0}};  // Above P60.
  EXPECT_FALSE(
      FilterMiCandidates(compiled_, layout, TraceWithIops(100.0, 9000.0)).ok());
}

TEST_F(MiFilterFixture, ObservedStorageOverridesLayoutSize) {
  // Layout says 100 GB but telemetry shows 6 TB allocated: all BC (max
  // 4 TB) are excluded, and only large GP SKUs survive.
  const catalog::FileLayout layout = catalog::UniformLayout(100.0, 1);
  StatusOr<MiCompiledFilterResult> result =
      FilterMiCandidates(compiled_, layout, TraceWithIops(100.0, 6000.0));
  ASSERT_TRUE(result.ok());
  for (const CompiledCandidateRef& candidate : result->candidates) {
    EXPECT_GE(candidate.entry->sku->max_data_gb, 6000.0);
    EXPECT_EQ(candidate.entry->sku->tier, ServiceTier::kGeneralPurpose);
  }
}

TEST_F(MiFilterFixture, EmptyTraceRejected) {
  EXPECT_FALSE(FilterMiCandidates(compiled_, catalog::UniformLayout(100, 1),
                                  telemetry::PerfTrace())
                   .ok());
}

// Property: across random workloads, every curve built from the full
// catalog is monotone and classification is stable under epsilon jitter.
class CurveMonotonicityProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CurveMonotonicityProperty, EnvelopeAlwaysMonotone) {
  Rng rng(GetParam());
  workload::WorkloadSpec spec;
  spec.name = "prop";
  spec.dims[ResourceDim::kCpu] = workload::DimensionSpec::Spiky(
      rng.Uniform(0.5, 8.0), rng.Uniform(1.0, 20.0), 1.0, 30.0);
  spec.dims[ResourceDim::kMemoryGb] =
      workload::DimensionSpec::DailyPeriodic(rng.Uniform(1.0, 40.0), 10.0);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(rng.Uniform(1.0, 9.0), 0.05);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 3.0, &rng);
  ASSERT_TRUE(trace.ok());

  const catalog::DefaultPricing pricing;
  const NonParametricEstimator estimator;
  const catalog::CompiledCatalog compiled = catalog::CompiledCatalog::Compile(
      catalog::BuildAzureLikeCatalog(), &pricing);
  StatusOr<PricePerformanceCurve> curve = PricePerformanceCurve::Build(
      *trace, DbView(compiled), pricing, estimator);
  ASSERT_TRUE(curve.ok());
  for (std::size_t i = 1; i < curve->size(); ++i) {
    ASSERT_GE(curve->points()[i].performance,
              curve->points()[i - 1].performance);
    ASSERT_GE(curve->points()[i].monthly_price,
              curve->points()[i - 1].monthly_price);
  }
  // Probabilities are valid probabilities.
  for (const PricePerformancePoint& point : curve->points()) {
    ASSERT_GE(point.throttling_probability, 0.0);
    ASSERT_LE(point.throttling_probability, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CurveMonotonicityProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace doppler::core
