// Golden-report regression tests: the canonical traces under examples/
// are assessed through the full pipeline and the deterministic JSON report
// (stage seconds excluded) must match the committed goldens byte for byte.
// Any engine change that moves a recommendation, a probability, a quality
// finding or even a JSON key now fails loudly here instead of shipping
// silently.
//
// Refreshing after an INTENDED change:
//
//   DOPPLER_UPDATE_GOLDEN=1 ./golden_report_test
//
// rewrites examples/golden/*.json in the source tree; review the diff like
// any other code change.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/throttling.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "obs/metrics.h"
#include "quality/quality_gate.h"

#ifndef DOPPLER_SOURCE_DIR
#error "golden_report_test requires the DOPPLER_SOURCE_DIR definition"
#endif

namespace doppler {
namespace {

using catalog::Deployment;

std::string TracePath(const std::string& name) {
  return std::string(DOPPLER_SOURCE_DIR) + "/examples/traces/" + name +
         ".csv";
}

std::string GoldenPath(const std::string& name) {
  return std::string(DOPPLER_SOURCE_DIR) + "/examples/golden/" + name +
         ".json";
}

bool UpdateMode() {
  const char* env = std::getenv("DOPPLER_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return UnavailableError("cannot write " + path);
  out << content;
  return OkStatus();
}

class GoldenReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
    const catalog::DefaultPricing pricing;
    const core::NonParametricEstimator estimator;
    // Same fixed seed every run: the group model is part of the golden.
    StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
        catalog, pricing, estimator, Deployment::kSqlDb,
        /*num_customers=*/30, /*seed=*/7);
    ASSERT_TRUE(model.ok());
    dma::SkuRecommendationPipeline::Config config;
    // Deliberately parallel: the goldens double as a determinism check —
    // they were produced at some thread count and must reproduce at this
    // one.
    config.num_threads = 2;
    StatusOr<dma::SkuRecommendationPipeline> pipeline =
        dma::SkuRecommendationPipeline::Create(
            {std::move(catalog), *std::move(model)}, config);
    ASSERT_TRUE(pipeline.ok());
    pipeline_ =
        new dma::SkuRecommendationPipeline(*std::move(pipeline));
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  // Assesses one canonical trace exactly the way the CLI does (gated
  // ingestion, repair policy) and renders the deterministic report.
  static StatusOr<std::string> RenderCanonical(const std::string& name,
                                               Deployment target,
                                               bool confidence) {
    quality::GateOptions gate;
    DOPPLER_ASSIGN_OR_RETURN(
        quality::GatedTrace gated,
        quality::ReadTraceFileGated(TracePath(name), gate));
    dma::AssessmentRequest request;
    request.customer_id = name + ".csv";
    request.target = target;
    request.database_traces = {std::move(gated.trace)};
    request.ingest_quality = std::move(gated.report);
    request.compute_confidence = confidence;
    DOPPLER_ASSIGN_OR_RETURN(dma::AssessmentOutcome outcome,
                             pipeline_->Assess(request));
    dma::AssessmentJsonOptions options;
    options.include_stage_seconds = false;
    return dma::RenderAssessmentJson(outcome, options) + "\n";
  }

  static void CheckGolden(const std::string& golden_name,
                          const std::string& trace_name, Deployment target,
                          bool confidence = false) {
    StatusOr<std::string> rendered =
        RenderCanonical(trace_name, target, confidence);
    ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
    if (UpdateMode()) {
      const Status written = WriteFile(GoldenPath(golden_name), *rendered);
      ASSERT_TRUE(written.ok()) << written.ToString();
      GTEST_SKIP() << "golden " << golden_name << " regenerated";
    }
    StatusOr<std::string> golden = ReadFile(GoldenPath(golden_name));
    ASSERT_TRUE(golden.ok())
        << golden.status().ToString()
        << " (run with DOPPLER_UPDATE_GOLDEN=1 to generate)";
    EXPECT_EQ(*rendered, *golden)
        << "report for " << trace_name << " drifted from golden '"
        << golden_name << "'; if intended, regenerate with "
        << "DOPPLER_UPDATE_GOLDEN=1 and review the diff";
  }

  static dma::SkuRecommendationPipeline* pipeline_;
};

dma::SkuRecommendationPipeline* GoldenReportTest::pipeline_ = nullptr;

TEST_F(GoldenReportTest, SteadyOltpDb) {
  CheckGolden("steady_oltp_db", "steady_oltp", Deployment::kSqlDb,
              /*confidence=*/true);
}

TEST_F(GoldenReportTest, SpikyBatchDb) {
  CheckGolden("spiky_batch_db", "spiky_batch", Deployment::kSqlDb);
}

TEST_F(GoldenReportTest, SpikyBatchMi) {
  CheckGolden("spiky_batch_mi", "spiky_batch", Deployment::kSqlMi);
}

TEST_F(GoldenReportTest, BurstyDwDb) {
  CheckGolden("bursty_dw_db", "bursty_dw", Deployment::kSqlDb);
}

// The goldens above are served by the plain per-SKU scan (DESIGN.md §9):
// the curve is one Probability evaluation per DB candidate, each charging
// the rows it really visited — at least one full column. This pins that
// the counters describe the work the golden path does.
TEST_F(GoldenReportTest, PerSkuScanServesGoldenRenders) {
  obs::MetricsRegistry& metrics = obs::DefaultMetrics();
  const std::uint64_t evals0 =
      metrics.GetCounter("ppm.throttling_evaluations")->Value();
  const std::uint64_t samples0 =
      metrics.GetCounter("ppm.samples_scanned")->Value();
  StatusOr<std::string> rendered =
      RenderCanonical("steady_oltp", Deployment::kSqlDb, false);
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  const std::uint64_t evals =
      metrics.GetCounter("ppm.throttling_evaluations")->Value() - evals0;
  const std::uint64_t samples =
      metrics.GetCounter("ppm.samples_scanned")->Value() - samples0;
  const std::size_t candidates =
      pipeline_->compiled().ForDeployment(Deployment::kSqlDb).size();
  StatusOr<quality::GatedTrace> gated = quality::ReadTraceFileGated(
      TracePath("steady_oltp"), quality::GateOptions());
  ASSERT_TRUE(gated.ok());
  EXPECT_EQ(evals, candidates) << "one scan per DB candidate";
  EXPECT_GE(samples, evals * gated->trace.num_samples())
      << "every scan visits at least one full column";
}

// The report must not depend on which identically-configured pipeline
// produced it — goldens survive process restarts and pipeline rebuilds.
TEST_F(GoldenReportTest, ReportIsStableAcrossRenderings) {
  StatusOr<std::string> first =
      RenderCanonical("steady_oltp", Deployment::kSqlDb, false);
  StatusOr<std::string> second =
      RenderCanonical("steady_oltp", Deployment::kSqlDb, false);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

}  // namespace
}  // namespace doppler
