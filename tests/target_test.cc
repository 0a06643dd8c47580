// Tests for the deployment-target registry (ROADMAP item 5): registry
// round-trip and id resolution, byte-identity of the default (Azure)
// compile with the explicit Azure spec, cross-target determinism of the
// curve build at 1 and 8 engine threads, and the moving-capacity
// throttling probability (paper Eq. 1 with R_cpu a function of t) pinned
// bit-identical to a naive row-major oracle.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "catalog/premium_disk.h"
#include "catalog/pricing.h"
#include "catalog/resource.h"
#include "catalog/target.h"
#include "core/autoscale.h"
#include "core/price_performance.h"
#include "core/throttling.h"
#include "dma/multi_target.h"
#include "exec/thread_pool.h"
#include "telemetry/perf_trace.h"
#include "util/random.h"
#include "workload/generator.h"

namespace doppler {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;
using catalog::TargetSpec;

// A periodic two-resource workload every target's ladder can host.
telemetry::PerfTrace PeriodicTrace(std::uint64_t seed, double days = 7.0) {
  Rng rng(seed);
  workload::WorkloadSpec spec;
  spec.name = "periodic";
  spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::DailyPeriodic(1.2, 0.8, 0.05);
  spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::DailyPeriodic(300.0, 180.0, 0.05);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.02);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, days, &rng);
  EXPECT_TRUE(trace.ok());
  return *std::move(trace);
}

// ------------------------------------------------------------ Registry.

TEST(TargetRegistryTest, BuiltInsListAzureThenAws) {
  const catalog::TargetRegistry& registry = catalog::TargetRegistry::BuiltIns();
  ASSERT_EQ(registry.specs().size(), 2u);
  EXPECT_EQ(registry.specs()[0].id, "azure-db");
  EXPECT_EQ(registry.specs()[1].id, "aws-rds");

  // The registry owns copies of the specs, so identity is by id, not
  // address.
  const TargetSpec* azure = registry.Find("azure-db");
  ASSERT_NE(azure, nullptr);
  EXPECT_EQ(azure->display_name, catalog::AzureDbTargetSpec().display_name);
  EXPECT_EQ(azure->reprice_for_trace,
            catalog::AzureDbTargetSpec().reprice_for_trace);
  const TargetSpec* aws = registry.Find("aws-rds");
  ASSERT_NE(aws, nullptr);
  EXPECT_EQ(aws->display_name, catalog::AwsRdsTargetSpec().display_name);
  EXPECT_EQ(registry.Find("gcp-cloudsql"), nullptr);
}

TEST(TargetRegistryTest, BuiltInSpecsAreComplete) {
  for (const TargetSpec& spec : catalog::TargetRegistry::BuiltIns().specs()) {
    SCOPED_TRACE(spec.id);
    EXPECT_FALSE(spec.display_name.empty());
    ASSERT_TRUE(static_cast<bool>(spec.build_catalog));
    ASSERT_TRUE(static_cast<bool>(spec.storage_tiers));
    EXPECT_FALSE(spec.build_catalog().empty());
    EXPECT_FALSE(spec.storage_tiers().empty());
    EXPECT_FALSE(spec.capacity_dims.empty());
    // Three pricing models per built-in target, pay-go first.
    ASSERT_EQ(spec.pricing_models.size(), 3u);
    EXPECT_EQ(spec.pricing_models[0].model, catalog::PricingModel::kPayGo);
    bool has_reserved = false;
    bool has_serverless = false;
    for (const catalog::TargetPricingModel& model : spec.pricing_models) {
      if (model.model == catalog::PricingModel::kReserved) {
        has_reserved = true;
        EXPECT_GT(model.reserved_discount, 0.0);
        EXPECT_LT(model.reserved_discount, 1.0);
      }
      if (model.model == catalog::PricingModel::kServerless) {
        has_serverless = true;
        EXPECT_GT(model.autoscale.headroom, 1.0);
        EXPECT_GT(model.autoscale.ema_alpha, 0.0);
        EXPECT_LE(model.autoscale.ema_alpha, 1.0);
      }
    }
    EXPECT_TRUE(has_reserved);
    EXPECT_TRUE(has_serverless);
  }
}

TEST(TargetRegistryTest, RegisterAppendsAndReplacesById) {
  catalog::TargetRegistry registry;
  TargetSpec spec;
  spec.id = "test-target";
  spec.display_name = "First";
  registry.Register(spec);
  ASSERT_EQ(registry.specs().size(), 1u);

  spec.display_name = "Second";
  registry.Register(spec);  // Same id: replaces, does not append.
  ASSERT_EQ(registry.specs().size(), 1u);
  const TargetSpec* found = registry.Find("test-target");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->display_name, "Second");

  spec.id = "another-target";
  registry.Register(spec);
  EXPECT_EQ(registry.specs().size(), 2u);
  EXPECT_NE(registry.Find("another-target"), nullptr);
}

TEST(TargetRegistryTest, ResolveTargetsParsesAndValidates) {
  StatusOr<std::vector<const TargetSpec*>> both =
      dma::ResolveTargets("azure-db, aws-rds");
  ASSERT_TRUE(both.ok());
  ASSERT_EQ(both->size(), 2u);
  EXPECT_EQ((*both)[0]->id, "azure-db");
  EXPECT_EQ((*both)[1]->id, "aws-rds");

  const StatusOr<std::vector<const TargetSpec*>> unknown =
      dma::ResolveTargets("azure-db,nope");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("nope"), std::string::npos);

  EXPECT_FALSE(dma::ResolveTargets("").ok());
  EXPECT_FALSE(dma::ResolveTargets(" , ").ok());
}

// ------------------------------------------------- Azure byte-identity.

TEST(AzureIdentityTest, DefaultCompileCarriesTheAzureSpec) {
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog compiled = catalog::CompiledCatalog::Compile(
      catalog::BuildAzureLikeCatalog(), &pricing);
  EXPECT_EQ(&compiled.target(), &catalog::AzureDbTargetSpec());

  // The snapshotted disk table is the pre-registry premium-disk ladder.
  const std::vector<catalog::PremiumDiskTier>& tiers = compiled.disk_tiers();
  const std::vector<catalog::PremiumDiskTier>& golden =
      catalog::PremiumDiskTiers();
  ASSERT_EQ(tiers.size(), golden.size());
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    EXPECT_EQ(tiers[i].name, golden[i].name);
    EXPECT_EQ(tiers[i].iops, golden[i].iops);
    EXPECT_EQ(tiers[i].throughput_mibps, golden[i].throughput_mibps);
  }
}

TEST(AzureIdentityTest, CompileTargetMatchesLegacyCompileBitForBit) {
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog legacy = catalog::CompiledCatalog::Compile(
      catalog::BuildAzureLikeCatalog(), &pricing);
  const catalog::CompiledCatalog via_spec =
      catalog::CompiledCatalog::CompileTarget(catalog::AzureDbTargetSpec(),
                                              &pricing);

  for (Deployment deployment : {Deployment::kSqlDb, Deployment::kSqlMi}) {
    SCOPED_TRACE(static_cast<int>(deployment));
    const catalog::CompiledView a = legacy.ForDeployment(deployment).view();
    const catalog::CompiledView b = via_spec.ForDeployment(deployment).view();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].sku->id, b[i].sku->id);
      EXPECT_EQ(a[i].monthly_price, b[i].monthly_price);
      for (ResourceDim dim : a[i].capacities.PresentDims()) {
        EXPECT_EQ(a[i].capacities.Get(dim), b[i].capacities.Get(dim));
      }
    }
  }
}

TEST(AzureIdentityTest, CurveIdenticalThroughEitherCompilePath) {
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog legacy = catalog::CompiledCatalog::Compile(
      catalog::BuildAzureLikeCatalog(), &pricing);
  const catalog::CompiledCatalog via_spec =
      catalog::CompiledCatalog::CompileTarget(catalog::AzureDbTargetSpec(),
                                              &pricing);
  const core::NonParametricEstimator estimator;
  const telemetry::PerfTrace trace = PeriodicTrace(21);

  StatusOr<core::PricePerformanceCurve> a = core::PricePerformanceCurve::Build(
      trace, legacy.ForDeployment(Deployment::kSqlDb).view(), pricing,
      estimator);
  StatusOr<core::PricePerformanceCurve> b = core::PricePerformanceCurve::Build(
      trace, via_spec.ForDeployment(Deployment::kSqlDb).view(), pricing,
      estimator);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->points()[i].sku.id, b->points()[i].sku.id);
    EXPECT_EQ(a->points()[i].monthly_price, b->points()[i].monthly_price);
    EXPECT_EQ(a->points()[i].throttling_probability,
              b->points()[i].throttling_probability);
    EXPECT_EQ(a->points()[i].performance, b->points()[i].performance);
  }
}

// --------------------------------------- Cross-target determinism.

TEST(CrossTargetTest, CurveBitIdenticalAtOneAndEightThreads) {
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  const telemetry::PerfTrace trace = PeriodicTrace(22);
  exec::ThreadPool pool(8);

  for (const TargetSpec& spec : catalog::TargetRegistry::BuiltIns().specs()) {
    SCOPED_TRACE(spec.id);
    const catalog::CompiledCatalog compiled =
        catalog::CompiledCatalog::CompileTarget(spec, &pricing);
    const catalog::CompiledView view =
        compiled.ForDeployment(spec.deployment).view();
    ASSERT_FALSE(view.empty());

    StatusOr<core::PricePerformanceCurve> serial =
        core::PricePerformanceCurve::Build(trace, view, pricing, estimator);
    StatusOr<core::PricePerformanceCurve> pooled =
        core::PricePerformanceCurve::Build(trace, view, pricing, estimator,
                                           &pool);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(pooled.ok());
    ASSERT_EQ(serial->size(), pooled->size());
    for (std::size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ(serial->points()[i].sku.id, pooled->points()[i].sku.id);
      EXPECT_EQ(serial->points()[i].monthly_price,
                pooled->points()[i].monthly_price);
      EXPECT_EQ(serial->points()[i].throttling_probability,
                pooled->points()[i].throttling_probability);
      EXPECT_EQ(serial->points()[i].performance,
                pooled->points()[i].performance);
    }
  }
}

TEST(CrossTargetTest, AssessAcrossTargetsIsReproducible) {
  const telemetry::PerfTrace trace = PeriodicTrace(23);
  StatusOr<std::vector<const TargetSpec*>> targets =
      dma::ResolveTargets("azure-db,aws-rds");
  ASSERT_TRUE(targets.ok());

  StatusOr<dma::CrossTargetReport> first =
      dma::AssessAcrossTargets(trace, *targets);
  StatusOr<dma::CrossTargetReport> second =
      dma::AssessAcrossTargets(trace, *targets);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  // Both targets succeed, cost every model they offer, and the two runs
  // render byte-identical reports (text and JSON).
  ASSERT_EQ(first->targets.size(), 2u);
  for (const dma::TargetAssessment& target : first->targets) {
    SCOPED_TRACE(target.target_id);
    ASSERT_TRUE(target.status.ok());
    EXPECT_EQ(target.pricing.size(), 3u);
    EXPECT_EQ(target.pricing[0].model, catalog::PricingModel::kPayGo);
  }
  EXPECT_GE(first->best_index, 0);
  EXPECT_EQ(dma::RenderCrossTargetJson(*first),
            dma::RenderCrossTargetJson(*second));
  EXPECT_EQ(dma::RenderCrossTargetReport(*first),
            dma::RenderCrossTargetReport(*second));
}

TEST(CrossTargetTest, RejectsEmptyInputs) {
  const telemetry::PerfTrace trace = PeriodicTrace(24);
  EXPECT_FALSE(dma::AssessAcrossTargets(trace, {}).ok());
  EXPECT_FALSE(
      dma::AssessAcrossTargets(telemetry::PerfTrace(),
                               {&catalog::AzureDbTargetSpec()})
          .ok());
  EXPECT_FALSE(dma::AssessAcrossTargets(trace, {nullptr}).ok());
}

// ------------------------------------- Moving-capacity throttling.

// The definitional probability, written out longhand: a row is throttled
// when the moving dimension's demand exceeds its per-row limit or any
// other shared dimension exceeds its constant limit.
double NaiveMovingProbability(const telemetry::PerfTrace& trace,
                              const catalog::ResourceVector& capacities,
                              const core::MovingCapacity& moving) {
  const std::size_t n = trace.num_samples();
  std::size_t throttled = 0;
  for (std::size_t t = 0; t < n; ++t) {
    bool any = catalog::ResourceVector::Exceeds(
        moving.dim, trace.Values(moving.dim)[t], moving.capacity[t]);
    for (ResourceDim dim : trace.PresentDims()) {
      if (any) break;
      if (dim == moving.dim || !capacities.Has(dim)) continue;
      any = catalog::ResourceVector::Exceeds(dim, trace.Values(dim)[t],
                                             capacities.Get(dim));
    }
    throttled += any;
  }
  return static_cast<double>(throttled) / static_cast<double>(n);
}

TEST(MovingCapacityTest, MatchesNaiveRowMajorOracle) {
  const core::NonParametricEstimator estimator;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 977);
    const telemetry::PerfTrace trace = PeriodicTrace(seed, /*days=*/2.0);
    const std::size_t n = trace.num_samples();
    ASSERT_GT(n, 0u);

    // Random constant limits that straddle the demand ranges, so rows land
    // on both sides of every comparison.
    catalog::ResourceVector capacities;
    capacities.Set(ResourceDim::kCpu, rng.Uniform(0.5, 2.5));
    capacities.Set(ResourceDim::kIops, rng.Uniform(150.0, 600.0));
    capacities.Set(ResourceDim::kIoLatencyMs, rng.Uniform(5.0, 9.0));

    // A jittery moving CPU limit, crossing demand repeatedly.
    core::MovingCapacity moving;
    moving.dim = ResourceDim::kCpu;
    moving.capacity.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
      moving.capacity.push_back(rng.Uniform(0.3, 2.8));
    }

    const double oracle = NaiveMovingProbability(trace, capacities, moving);
    StatusOr<double> scanned =
        estimator.ProbabilityMoving(trace, capacities, moving);
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(*scanned, oracle);  // Bit-identical, not approximately equal.
  }
}

TEST(MovingCapacityTest, SupersedesConstantEntryForTheMovingDim) {
  // A constant CPU limit above all demand plus a moving series below all
  // demand must throttle every row: the series wins for its dimension.
  const core::NonParametricEstimator estimator;
  const telemetry::PerfTrace trace = PeriodicTrace(31, /*days=*/1.0);
  catalog::ResourceVector capacities;
  capacities.Set(ResourceDim::kCpu, 1e9);
  core::MovingCapacity moving;
  moving.dim = ResourceDim::kCpu;
  moving.capacity.assign(trace.num_samples(), 0.0);
  StatusOr<double> probability =
      estimator.ProbabilityMoving(trace, capacities, moving);
  ASSERT_TRUE(probability.ok());
  EXPECT_EQ(*probability, 1.0);
}

TEST(MovingCapacityTest, ValidatesInputs) {
  const core::NonParametricEstimator estimator;
  const telemetry::PerfTrace trace = PeriodicTrace(32, /*days=*/1.0);
  catalog::ResourceVector capacities;
  capacities.Set(ResourceDim::kCpu, 1.0);

  core::MovingCapacity wrong_length;
  wrong_length.dim = ResourceDim::kCpu;
  wrong_length.capacity.assign(trace.num_samples() + 1, 1.0);
  EXPECT_FALSE(
      estimator.ProbabilityMoving(trace, capacities, wrong_length).ok());

  core::MovingCapacity absent_dim;
  absent_dim.dim = ResourceDim::kMemoryGb;  // Not in the trace.
  absent_dim.capacity.assign(trace.num_samples(), 1.0);
  EXPECT_FALSE(
      estimator.ProbabilityMoving(trace, capacities, absent_dim).ok());

  core::MovingCapacity empty;
  empty.dim = ResourceDim::kCpu;
  EXPECT_FALSE(estimator
                   .ProbabilityMoving(telemetry::PerfTrace(), capacities,
                                      empty)
                   .ok());
}

TEST(MovingCapacityTest, AutoscaleLagRaisesThrottlingOverCeiling) {
  // The simulated autoscaler lags demand, so throttling against the moving
  // provisioned series is at least the throttling against the scale
  // ceiling (the series never exceeds sku.vcores).
  const catalog::SkuCatalog aws = catalog::BuildAwsRdsLikeCatalog();
  const catalog::Sku* sku = nullptr;
  for (const catalog::Sku& candidate : aws.skus()) {
    if (!candidate.serverless && candidate.vcores >= 2) {
      sku = &candidate;
      break;
    }
  }
  ASSERT_NE(sku, nullptr);

  const telemetry::PerfTrace trace = PeriodicTrace(33);
  catalog::ServerlessAutoscalePolicy policy;
  StatusOr<core::AutoscaleSimulation> sim =
      core::SimulateServerlessAutoscale(trace, *sku, policy);
  ASSERT_TRUE(sim.ok());
  ASSERT_EQ(sim->capacity.capacity.size(), trace.num_samples());
  for (double provisioned : sim->capacity.capacity) {
    EXPECT_LE(provisioned, static_cast<double>(sku->vcores) + 1e-12);
    EXPECT_GT(provisioned, 0.0);
  }
  EXPECT_GT(sim->mean_provisioned_vcores, 0.0);
  EXPECT_GT(sim->monthly_cost, 0.0);

  const core::NonParametricEstimator estimator;
  StatusOr<double> moving =
      estimator.ProbabilityMoving(trace, sku->Capacities(), sim->capacity);
  StatusOr<double> ceiling =
      estimator.Probability(trace, sku->Capacities());
  ASSERT_TRUE(moving.ok());
  ASSERT_TRUE(ceiling.ok());
  EXPECT_GE(*moving, *ceiling);
}

}  // namespace
}  // namespace doppler
