// Tests for the JSON writer, the machine-readable assessment export, and
// robustness of the CSV/trace parsers against malformed input.

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "telemetry/trace_io.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "workload/generator.h"

namespace doppler {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

// -------------------------------------------------------- JsonWriter.

TEST(JsonWriterTest, ObjectsArraysAndScalars) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name").String("doppler");
  json.Key("version").Int(5);
  json.Key("accuracy").Number(0.894);
  json.Key("released").Bool(true);
  json.Key("successor").Null();
  json.Key("tiers").BeginArray().String("GP").String("BC").EndArray();
  json.Key("nested").BeginObject().Key("k").Int(1).EndObject();
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"doppler\",\"version\":5,\"accuracy\":0.894,"
            "\"released\":true,\"successor\":null,"
            "\"tiers\":[\"GP\",\"BC\"],\"nested\":{\"k\":1}}");
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\nd\te"),
            "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::Escape(std::string(1, '\x01')), "\\u0001");
  JsonWriter json;
  json.BeginArray().String("x\"y").EndArray();
  EXPECT_EQ(json.str(), "[\"x\\\"y\"]");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.BeginArray()
      .Number(std::numeric_limits<double>::infinity())
      .Number(std::nan(""))
      .Number(1.5)
      .EndArray();
  EXPECT_EQ(json.str(), "[null,null,1.5]");
}

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter json;
  json.BeginObject().Key("a").BeginArray().EndArray().Key("b").BeginObject()
      .EndObject().EndObject();
  EXPECT_EQ(json.str(), "{\"a\":[],\"b\":{}}");
}

TEST(JsonWriterTest, ArrayOfObjects) {
  JsonWriter json;
  json.BeginArray();
  for (int i = 0; i < 3; ++i) {
    json.BeginObject().Key("i").Int(i).EndObject();
  }
  json.EndArray();
  EXPECT_EQ(json.str(), "[{\"i\":0},{\"i\":1},{\"i\":2}]");
}

// ------------------------------------------------ Assessment export.

TEST(AssessmentJsonTest, ExportCarriesAllSections) {
  catalog::SkuCatalog skus = catalog::BuildAzureLikeCatalog();
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
      skus, pricing, estimator, Deployment::kSqlDb, 40, 13);
  ASSERT_TRUE(model.ok());
  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      dma::SkuRecommendationPipeline::Create(
          {std::move(skus), *std::move(model)});
  ASSERT_TRUE(pipeline.ok());

  Rng rng(21);
  workload::WorkloadSpec spec;
  spec.name = "json";
  spec.dims[ResourceDim::kCpu] = workload::DimensionSpec::Steady(0.5, 0.03);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.02);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 3.0, &rng);
  ASSERT_TRUE(trace.ok());

  dma::AssessmentRequest request;
  request.customer_id = "json-customer";
  request.target = Deployment::kSqlDb;
  request.database_traces = {*trace};
  request.current_sku_id = "DB_GP_Gen5_40";
  request.compute_confidence = true;
  StatusOr<dma::AssessmentOutcome> outcome = pipeline->Assess(request);
  ASSERT_TRUE(outcome.ok());

  const std::string json = dma::RenderAssessmentJson(*outcome);
  // Structural spot checks (no parser in the library by design).
  EXPECT_NE(json.find("\"customer_id\":\"json-customer\""),
            std::string::npos);
  EXPECT_NE(json.find("\"elastic\":{"), std::string::npos);
  EXPECT_NE(json.find("\"baseline\":{"), std::string::npos);
  EXPECT_NE(json.find("\"confidence\":{"), std::string::npos);
  EXPECT_NE(json.find("\"rightsizing\":{"), std::string::npos);
  EXPECT_NE(json.find("\"curve\":["), std::string::npos);
  EXPECT_NE(json.find("\"over_provisioned\":true"), std::string::npos);
  // Balanced braces/brackets (the writer's structural guarantee).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// The report's negotiability block must be scored with the pipeline's own
// profiler: at a non-default rho its verdicts must match the negotiable
// list the rationale printed for the same recommendation. The trace holds
// each dimension at its peak for 20% of the time — negotiable at rho 0.25
// (score 0.8 > 0.75) but not at the default 0.10 (0.8 <= 0.9) — and the
// CPU peaks make the curve complex, so the rationale lists its profile.
TEST(AssessmentJsonTest, NegotiabilityBlockUsesThePipelinesRho) {
  catalog::SkuCatalog skus = catalog::BuildAzureLikeCatalog();
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
      skus, pricing, estimator, Deployment::kSqlDb, 40, 13);
  ASSERT_TRUE(model.ok());
  dma::SkuRecommendationPipeline::Config config;
  config.rho = 0.25;
  config.num_threads = 1;
  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      dma::SkuRecommendationPipeline::Create(
          {std::move(skus), *std::move(model)}, config);
  ASSERT_TRUE(pipeline.ok());

  const std::size_t n = 7 * 144;
  telemetry::PerfTrace trace;
  const auto peaked = [n](double base, double peak) {
    std::vector<double> series(n, base);
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 5 == 0) series[i] = peak;
    }
    return series;
  };
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, peaked(2.0, 10.0)).ok());
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kMemoryGb, peaked(8.0, 20.0)).ok());
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kIops, peaked(300.0, 900.0)).ok());
  ASSERT_TRUE(
      trace.SetSeries(ResourceDim::kLogRateMbps, peaked(2.0, 6.0)).ok());

  dma::AssessmentRequest request;
  request.customer_id = "rho-customer";
  request.target = Deployment::kSqlDb;
  request.database_traces = {trace};
  StatusOr<dma::AssessmentOutcome> outcome = pipeline->Assess(request);
  ASSERT_TRUE(outcome.ok());
  ASSERT_NE(outcome->elastic.curve_shape, core::CurveShape::kFlat);

  // The rationale's list: "(negotiable: cpu, memory, ...)".
  const std::string& rationale = outcome->elastic.rationale;
  const std::string marker = "(negotiable: ";
  const std::size_t open = rationale.find(marker);
  ASSERT_NE(open, std::string::npos) << rationale;
  const std::size_t close = rationale.find(')', open);
  std::vector<std::string> listed;
  std::stringstream items(
      rationale.substr(open + marker.size(), close - open - marker.size()));
  for (std::string item; std::getline(items, item, ',');) {
    listed.push_back(item.substr(item.find_first_not_of(' ')));
  }

  // The JSON block's verdicts, in block order.
  const std::string json = dma::RenderAssessmentJson(*outcome);
  const std::size_t block = json.find("\"negotiability\":[");
  ASSERT_NE(block, std::string::npos);
  const std::string entries = json.substr(block, json.find(']', block) - block);
  std::vector<std::string> flagged;
  std::size_t scored_between_cutoffs = 0;
  // Entries render as {"dimension":"cpu","score":0.8,"negotiable":true}.
  const std::string dim_key = "\"dimension\":\"";
  const std::string score_key = "\"score\":";
  const std::string verdict_key = "\"negotiable\":";
  for (std::size_t at = entries.find(dim_key); at != std::string::npos;
       at = entries.find(dim_key, at + 1)) {
    const std::size_t name_begin = at + dim_key.size();
    const std::string name =
        entries.substr(name_begin, entries.find('"', name_begin) - name_begin);
    const std::size_t score_at = entries.find(score_key, at);
    const std::size_t verdict_at = entries.find(verdict_key, at);
    ASSERT_NE(score_at, std::string::npos);
    ASSERT_NE(verdict_at, std::string::npos);
    const double score = std::stod(entries.substr(score_at + score_key.size()));
    if (entries.compare(verdict_at + verdict_key.size(), 4, "true") == 0) {
      flagged.push_back(name);
    }
    scored_between_cutoffs += score > 0.75 && score <= 0.9;
  }
  EXPECT_EQ(flagged, listed) << rationale << "\n" << entries;
  // The case only discriminates when rho decides some verdict.
  EXPECT_GT(scored_between_cutoffs, 0u) << entries;
}

// --------------------------------------------- Parser robustness.

TEST(ParserRobustnessTest, TraceParserNeverCrashesOnGarbage) {
  Rng rng(77);
  const std::string alphabet = "abc,0123456789.\n-eE\"t_seconds";
  for (int round = 0; round < 200; ++round) {
    std::string text;
    const std::size_t length = rng.UniformInt(400);
    for (std::size_t i = 0; i < length; ++i) {
      text += alphabet[rng.UniformInt(alphabet.size())];
    }
    StatusOr<CsvTable> table = CsvTable::Parse(text);
    if (!table.ok()) continue;
    // Whatever parsed as CSV must go through the trace parser without
    // crashing; errors are fine.
    (void)telemetry::TraceFromCsv(*table);
  }
  SUCCEED();
}

TEST(ParserRobustnessTest, TraceParserHandlesHostileNumbers) {
  for (const char* value :
       {"nan", "inf", "-inf", "1e308", "1e-308", "-0", "0x10", "1.5.2",
        " 42 ", ""}) {
    CsvTable table({"t_seconds", "cpu"});
    ASSERT_TRUE(table.AddRow({"0", value}).ok());
    ASSERT_TRUE(table.AddRow({"600", "1.0"}).ok());
    // Must either parse cleanly or fail with INVALID_ARGUMENT — never
    // crash or return an uninitialised trace.
    StatusOr<telemetry::PerfTrace> trace = telemetry::TraceFromCsv(table);
    if (trace.ok()) {
      EXPECT_EQ(trace->num_samples(), 2u) << value;
    } else {
      EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument) << value;
    }
  }
}

TEST(ParserRobustnessTest, RaggedCsvRejectedNotCrashed) {
  EXPECT_FALSE(CsvTable::Parse("a,b\n1\n").ok());
  EXPECT_FALSE(CsvTable::Parse("a,b\n1,2,3\n").ok());
  EXPECT_TRUE(CsvTable::Parse("a,b\n,\n").ok());  // Empty fields are fine.
}

}  // namespace
}  // namespace doppler
