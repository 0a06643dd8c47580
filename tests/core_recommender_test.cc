// Tests for the elastic and baseline recommenders, the bootstrap
// confidence score, and right-sizing.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "core/confidence.h"
#include "core/recommender.h"
#include "core/rightsizing.h"
#include "dma/preprocess.h"
#include "exec/thread_pool.h"
#include "workload/generator.h"
#include "workload/population.h"

namespace doppler::core {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;
using catalog::ServiceTier;

// Shared engine components, built once for the whole file (fitting the
// group model generates a fleet, which is the expensive part).
class RecommenderFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new catalog::SkuCatalog(catalog::BuildAzureLikeCatalog());
    pricing_ = new catalog::DefaultPricing();
    estimator_ = new NonParametricEstimator();
    StatusOr<GroupModel> model = dma::FitGroupModelOffline(
        *catalog_, *pricing_, *estimator_, Deployment::kSqlDb,
        /*num_customers=*/100, /*seed=*/5);
    ASSERT_TRUE(model.ok());
    group_model_ = new GroupModel(*std::move(model));
    db_profiler_ = new CustomerProfiler(
        std::make_shared<ThresholdingStrategy>(),
        workload::ProfilingDims(Deployment::kSqlDb));
    mi_profiler_ = new CustomerProfiler(
        std::make_shared<ThresholdingStrategy>(),
        workload::ProfilingDims(Deployment::kSqlMi));
    compiled_ = new catalog::CompiledCatalog(
        catalog::CompiledCatalog::Compile(*catalog_, pricing_));
    recommender_ = new ElasticRecommender(compiled_, estimator_, db_profiler_,
                                          group_model_);
    mi_recommender_ = new ElasticRecommender(compiled_, estimator_,
                                             mi_profiler_, group_model_);
    baseline_ = new BaselineRecommender(compiled_);
  }

  static void TearDownTestSuite() {
    delete baseline_;
    delete mi_recommender_;
    delete recommender_;
    delete compiled_;
    delete mi_profiler_;
    delete db_profiler_;
    delete group_model_;
    delete estimator_;
    delete pricing_;
    delete catalog_;
  }

  // A tiny steady workload that any SKU satisfies.
  static telemetry::PerfTrace TinyTrace(std::uint64_t seed) {
    Rng rng(seed);
    workload::WorkloadSpec spec;
    spec.name = "tiny";
    spec.dims[ResourceDim::kCpu] = workload::DimensionSpec::Steady(0.3, 0.02);
    spec.dims[ResourceDim::kMemoryGb] =
        workload::DimensionSpec::Steady(2.0, 0.02);
    spec.dims[ResourceDim::kIops] =
        workload::DimensionSpec::Steady(100.0, 0.02);
    spec.dims[ResourceDim::kIoLatencyMs] =
        workload::DimensionSpec::Steady(7.0, 0.02);
    StatusOr<telemetry::PerfTrace> trace =
        workload::GenerateTrace(spec, 7.0, &rng);
    EXPECT_TRUE(trace.ok());
    return *std::move(trace);
  }

  // A workload with spiky CPU that a mid-ladder SKU hosts with some
  // throttling.
  static telemetry::PerfTrace SpikyTrace(std::uint64_t seed) {
    Rng rng(seed);
    workload::WorkloadSpec spec;
    spec.name = "spiky";
    workload::DimensionSpec cpu =
        workload::DimensionSpec::Spiky(2.0, 9.0, 1.0, 30.0);
    cpu.base_amplitude = 3.0;
    spec.dims[ResourceDim::kCpu] = cpu;
    spec.dims[ResourceDim::kMemoryGb] =
        workload::DimensionSpec::DailyPeriodic(20.0, 12.0);
    spec.dims[ResourceDim::kIops] =
        workload::DimensionSpec::DailyPeriodic(1500.0, 900.0);
    spec.dims[ResourceDim::kIoLatencyMs] =
        workload::DimensionSpec::Steady(7.0, 0.03);
    StatusOr<telemetry::PerfTrace> trace =
        workload::GenerateTrace(spec, 10.0, &rng);
    EXPECT_TRUE(trace.ok());
    return *std::move(trace);
  }

  static catalog::SkuCatalog* catalog_;
  static catalog::DefaultPricing* pricing_;
  static catalog::CompiledCatalog* compiled_;
  static NonParametricEstimator* estimator_;
  static GroupModel* group_model_;
  static CustomerProfiler* db_profiler_;
  static CustomerProfiler* mi_profiler_;
  static ElasticRecommender* recommender_;
  static ElasticRecommender* mi_recommender_;
  static BaselineRecommender* baseline_;
};

catalog::SkuCatalog* RecommenderFixture::catalog_ = nullptr;
catalog::DefaultPricing* RecommenderFixture::pricing_ = nullptr;
catalog::CompiledCatalog* RecommenderFixture::compiled_ = nullptr;
NonParametricEstimator* RecommenderFixture::estimator_ = nullptr;
GroupModel* RecommenderFixture::group_model_ = nullptr;
CustomerProfiler* RecommenderFixture::db_profiler_ = nullptr;
CustomerProfiler* RecommenderFixture::mi_profiler_ = nullptr;
ElasticRecommender* RecommenderFixture::recommender_ = nullptr;
ElasticRecommender* RecommenderFixture::mi_recommender_ = nullptr;
BaselineRecommender* RecommenderFixture::baseline_ = nullptr;

// ------------------------------------------------------------- Elastic.

TEST_F(RecommenderFixture, FlatCurveGetsCheapestSku) {
  StatusOr<Recommendation> rec = recommender_->RecommendDb(TinyTrace(1));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->curve_shape, CurveShape::kFlat);
  // The cheapest DB SKU in the catalog is the Gen5 GP 2-core.
  EXPECT_EQ(rec->sku.id, "DB_GP_Gen5_2");
  EXPECT_LT(rec->throttling_probability, 0.02);
  EXPECT_NE(rec->rationale.find("flat"), std::string::npos);
  EXPECT_EQ(rec->group_id, -1);  // Profiling skipped on flat curves.
}

TEST_F(RecommenderFixture, ComplexCurveUsesGroupTarget) {
  StatusOr<Recommendation> rec = recommender_->RecommendDb(SpikyTrace(2));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->curve_shape, CurveShape::kComplex);
  EXPECT_GE(rec->group_id, 0);
  EXPECT_LE(rec->throttling_probability, rec->group_target + 1e-9);
  EXPECT_FALSE(rec->curve.empty());
  EXPECT_NE(rec->rationale.find("group"), std::string::npos);
}

TEST_F(RecommenderFixture, ElasticCheaperThanOrEqualBaselineOnSpiky) {
  // The elastic strategy negotiates spikes away; the baseline provisions
  // for the 95th percentile (paper §2: baseline over-provisions).
  const telemetry::PerfTrace trace = SpikyTrace(3);
  StatusOr<Recommendation> elastic = recommender_->RecommendDb(trace);
  StatusOr<Recommendation> base =
      baseline_->Recommend(trace, Deployment::kSqlDb);
  ASSERT_TRUE(elastic.ok());
  ASSERT_TRUE(base.ok());
  EXPECT_LE(elastic->monthly_cost, base->monthly_cost + 1e-9);
}

TEST_F(RecommenderFixture, LatencySensitiveWorkloadGetsBc) {
  Rng rng(4);
  workload::WorkloadSpec spec;
  spec.name = "latency-sensitive";
  spec.dims[ResourceDim::kCpu] = workload::DimensionSpec::Steady(1.0, 0.02);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(1.8, 0.05);  // Below the 5 ms GP floor.
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 7.0, &rng);
  ASSERT_TRUE(trace.ok());
  StatusOr<Recommendation> rec = recommender_->RecommendDb(*trace);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->sku.tier, ServiceTier::kBusinessCritical);
}

TEST_F(RecommenderFixture, MiPathUsesLayout) {
  const telemetry::PerfTrace trace = SpikyTrace(5);
  const catalog::FileLayout layout = catalog::UniformLayout(400.0, 4);
  StatusOr<Recommendation> rec = mi_recommender_->RecommendMi(trace, layout);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->sku.deployment, Deployment::kSqlMi);
  // Dispatching overload agrees.
  StatusOr<Recommendation> dispatched =
      mi_recommender_->Recommend(trace, Deployment::kSqlMi, layout);
  ASSERT_TRUE(dispatched.ok());
  EXPECT_EQ(dispatched->sku.id, rec->sku.id);
}

TEST_F(RecommenderFixture, EmptyTraceRejected) {
  EXPECT_FALSE(recommender_->RecommendDb(telemetry::PerfTrace()).ok());
}

// ------------------------------------------------------------- Baseline.

TEST_F(RecommenderFixture, BaselineScalarRequirementsUseQuantiles) {
  telemetry::PerfTrace trace;
  std::vector<double> cpu(100);
  for (int i = 0; i < 100; ++i) cpu[i] = i + 1;  // 1..100.
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, cpu).ok());
  std::vector<double> latency(100);
  for (int i = 0; i < 100; ++i) latency[i] = 10.0 - i * 0.05;  // 10 .. 5.05.
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kIoLatencyMs, latency).ok());

  StatusOr<catalog::ResourceVector> needs =
      baseline_->ScalarRequirements(trace);
  ASSERT_TRUE(needs.ok());
  EXPECT_NEAR(needs->Get(ResourceDim::kCpu), 95.05, 0.01);
  // Latency uses the LOW quantile: the tightest requirement.
  EXPECT_NEAR(needs->Get(ResourceDim::kIoLatencyMs), 5.2975, 0.01);
}

TEST_F(RecommenderFixture, BaselineFailsWhenNothingFits) {
  telemetry::PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu,
                              std::vector<double>(100, 500.0)).ok());
  EXPECT_EQ(baseline_->Recommend(trace, Deployment::kSqlDb).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RecommenderFixture, BaselinePicksCheapestSatisfying) {
  const telemetry::PerfTrace trace = TinyTrace(6);
  StatusOr<Recommendation> rec =
      baseline_->Recommend(trace, Deployment::kSqlDb);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->sku.id, "DB_GP_Gen5_2");
}

TEST_F(RecommenderFixture, BaselineMaxQuantileMoreConservative) {
  const BaselineRecommender max_baseline(compiled_, 1.0);
  const telemetry::PerfTrace trace = SpikyTrace(7);
  StatusOr<Recommendation> p95 =
      baseline_->Recommend(trace, Deployment::kSqlDb);
  StatusOr<Recommendation> p100 =
      max_baseline.Recommend(trace, Deployment::kSqlDb);
  ASSERT_TRUE(p95.ok());
  ASSERT_TRUE(p100.ok());
  EXPECT_GE(p100->monthly_cost, p95->monthly_cost);
}

// ------------------------------------------------------------ Confidence.

TEST_F(RecommenderFixture, StableWorkloadHasHighConfidence) {
  const telemetry::PerfTrace trace = TinyTrace(8);
  RecommendFn recommend = [&](const telemetry::PerfTrace& t) {
    return recommender_->RecommendDb(t);
  };
  ConfidenceOptions options;
  options.runs = 12;
  options.window_days = 2.0;
  Rng rng(9);
  StatusOr<ConfidenceResult> result =
      ScoreConfidence(trace, recommend, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->runs, 12);
  EXPECT_GT(result->score, 0.9);
  EXPECT_EQ(result->original.sku.id, "DB_GP_Gen5_2");
}

TEST_F(RecommenderFixture, VolatileWorkloadLowerConfidenceOnShortWindows) {
  // A trending workload where a 1-day window sees very different demand
  // than the full 10 days.
  Rng rng(10);
  workload::WorkloadSpec spec;
  spec.name = "trending";
  spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::Trending(1.0, 14.0, 0.05);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.02);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 10.0, &rng);
  ASSERT_TRUE(trace.ok());

  RecommendFn recommend = [&](const telemetry::PerfTrace& t) {
    return recommender_->RecommendDb(t);
  };
  ConfidenceOptions short_window;
  short_window.runs = 16;
  short_window.window_days = 1.0;
  ConfidenceOptions long_window;
  long_window.runs = 16;
  long_window.window_days = 8.0;
  Rng rng_a(11);
  Rng rng_b(11);
  StatusOr<ConfidenceResult> low =
      ScoreConfidence(*trace, recommend, short_window, &rng_a);
  StatusOr<ConfidenceResult> high =
      ScoreConfidence(*trace, recommend, long_window, &rng_b);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_LT(low->score, high->score);
}

TEST_F(RecommenderFixture, ConfidenceValidatesInputs) {
  const telemetry::PerfTrace trace = TinyTrace(12);
  RecommendFn recommend = [&](const telemetry::PerfTrace& t) {
    return recommender_->RecommendDb(t);
  };
  Rng rng(13);
  ConfidenceOptions options;
  EXPECT_FALSE(ScoreConfidence(trace, nullptr, options, &rng).ok());
  EXPECT_FALSE(ScoreConfidence(trace, recommend, options, nullptr).ok());
  options.runs = 0;
  EXPECT_FALSE(ScoreConfidence(trace, recommend, options, &rng).ok());
  options.runs = 4;
  EXPECT_FALSE(
      ScoreConfidence(telemetry::PerfTrace(), recommend, options, &rng).ok());
}

TEST_F(RecommenderFixture, IidSchemeAlsoWorks) {
  const telemetry::PerfTrace trace = TinyTrace(14);
  RecommendFn recommend = [&](const telemetry::PerfTrace& t) {
    return recommender_->RecommendDb(t);
  };
  ConfidenceOptions options;
  options.runs = 8;
  options.scheme = BootstrapScheme::kIid;
  Rng rng(15);
  StatusOr<ConfidenceResult> result =
      ScoreConfidence(trace, recommend, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->score, 0.9);
}

// The bootstrap fan-out (TSan target): runs evaluated across a pool of 1,
// 2 or 4 threads must give exactly the serial result — same run count,
// same matching runs, same score — for both schemes over 24 seeds, and
// with a RecommendFn that fails on some resamples (a failed run counts as
// non-matching wherever it runs).
TEST_F(RecommenderFixture, ConfidencePoolMatchesSerialAcrossSeedsAndSchemes) {
  const telemetry::PerfTrace trace = SpikyTrace(16);
  const double cpu_median = [&] {
    std::vector<double> cpu = trace.Values(ResourceDim::kCpu);
    std::nth_element(cpu.begin(), cpu.begin() + cpu.size() / 2, cpu.end());
    return cpu[cpu.size() / 2];
  }();
  // Fails exactly the resamples that open above the median CPU: a pure
  // function of the resample, so serial and pooled runs fail alike.
  const RecommendFn flaky = [&](const telemetry::PerfTrace& t) {
    if (&t != &trace && t.Values(ResourceDim::kCpu).front() > cpu_median) {
      return StatusOr<Recommendation>(UnavailableError("flaky run"));
    }
    return recommender_->RecommendDb(t);
  };
  const RecommendFn steady = [&](const telemetry::PerfTrace& t) {
    return recommender_->RecommendDb(t);
  };
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool2(2);
  exec::ThreadPool pool4(4);
  int failures_seen = 0;
  for (const BootstrapScheme scheme :
       {BootstrapScheme::kWindow, BootstrapScheme::kIid}) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      for (const RecommendFn* recommend : {&steady, &flaky}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " scheme " +
                     std::to_string(static_cast<int>(scheme)) +
                     (recommend == &flaky ? " flaky" : " steady"));
        ConfidenceOptions options;
        options.runs = 7;
        options.window_days = 2.0;
        options.scheme = scheme;
        Rng serial_rng(seed);
        StatusOr<ConfidenceResult> serial =
            ScoreConfidence(trace, *recommend, options, &serial_rng);
        ASSERT_TRUE(serial.ok());
        for (exec::ThreadPool* pool : {&pool1, &pool2, &pool4}) {
          Rng rng(seed);
          StatusOr<ConfidenceResult> pooled =
              ScoreConfidence(trace, *recommend, options, &rng, pool);
          ASSERT_TRUE(pooled.ok());
          EXPECT_EQ(pooled->runs, serial->runs);
          EXPECT_EQ(pooled->matching_runs, serial->matching_runs);
          EXPECT_EQ(pooled->score, serial->score);
          EXPECT_EQ(pooled->original.sku.id, serial->original.sku.id);
          // The RNG is left where the serial draws leave it.
          EXPECT_EQ(rng.NextUint64(), Rng(serial_rng).NextUint64());
        }
        if (recommend == &flaky) {
          Rng steady_rng(seed);
          StatusOr<ConfidenceResult> reference =
              ScoreConfidence(trace, steady, options, &steady_rng);
          ASSERT_TRUE(reference.ok());
          failures_seen += reference->matching_runs - serial->matching_runs;
        }
      }
    }
  }
  // The flaky function really did knock out matching runs somewhere.
  EXPECT_GT(failures_seen, 0);
}

// ----------------------------------------------------------- Rightsizing.

TEST_F(RecommenderFixture, OverProvisionedCustomerDetected) {
  StatusOr<Recommendation> rec = recommender_->RecommendDb(TinyTrace(16));
  ASSERT_TRUE(rec.ok());
  // Customer runs an 80-core box for a workload a 2-core SKU hosts (the
  // paper's §5.2 example with "$100k in annual savings").
  StatusOr<RightSizingAssessment> assessment =
      AssessRightSizing(rec->curve, "DB_GP_Gen5_80");
  ASSERT_TRUE(assessment.ok());
  EXPECT_TRUE(assessment->over_provisioned);
  EXPECT_GT(assessment->price_headroom, 30.0);
  EXPECT_EQ(assessment->recommended.sku.id, "DB_GP_Gen5_2");
  EXPECT_GT(assessment->annual_savings, 100000.0);
}

TEST_F(RecommenderFixture, WellSizedCustomerNotFlagged) {
  StatusOr<Recommendation> rec = recommender_->RecommendDb(TinyTrace(17));
  ASSERT_TRUE(rec.ok());
  StatusOr<RightSizingAssessment> assessment =
      AssessRightSizing(rec->curve, "DB_GP_Gen5_2");
  ASSERT_TRUE(assessment.ok());
  EXPECT_FALSE(assessment->over_provisioned);
  EXPECT_NEAR(assessment->price_headroom, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(assessment->monthly_savings, 0.0);
}

TEST_F(RecommenderFixture, ThrottledCustomerIsNotOverProvisioned) {
  // A customer on a SKU that does NOT satisfy their workload is mis-, not
  // over-provisioned, however expensive the SKU.
  const telemetry::PerfTrace trace = SpikyTrace(18);
  StatusOr<Recommendation> rec = recommender_->RecommendDb(trace);
  ASSERT_TRUE(rec.ok());
  // Find an expensive SKU that still throttles (small memory-optimised).
  StatusOr<PricePerformancePoint> cheapest =
      rec->curve.CheapestFullySatisfying();
  ASSERT_TRUE(cheapest.ok());
  for (const PricePerformancePoint& point : rec->curve.points()) {
    if (point.monthly_price > cheapest->monthly_price * 2 &&
        point.performance < 0.99) {
      StatusOr<RightSizingAssessment> assessment =
          AssessRightSizing(rec->curve, point.sku.id);
      ASSERT_TRUE(assessment.ok());
      EXPECT_FALSE(assessment->over_provisioned) << point.sku.id;
      break;
    }
  }
}

TEST_F(RecommenderFixture, RightSizingUnknownSkuFails) {
  StatusOr<Recommendation> rec = recommender_->RecommendDb(TinyTrace(19));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(AssessRightSizing(rec->curve, "NOPE").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace doppler::core
