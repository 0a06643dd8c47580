// Tests for the capacity-forecast module and the command-line front-end.

#include <algorithm>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "core/forecast.h"
#include "dma/cli.h"
#include "telemetry/trace_io.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/generator.h"

namespace doppler {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

// ---------------------------------------------------------- Forecast.

TEST(ForecastTest, LinearSlopeExact) {
  EXPECT_DOUBLE_EQ(core::LinearSlopePerSample({1, 3, 5, 7}), 2.0);
  EXPECT_DOUBLE_EQ(core::LinearSlopePerSample({5, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(core::LinearSlopePerSample({9, 6, 3}), -3.0);
  EXPECT_DOUBLE_EQ(core::LinearSlopePerSample({1}), 0.0);
  EXPECT_DOUBLE_EQ(core::LinearSlopePerSample({}), 0.0);
}

telemetry::PerfTrace GrowingTrace(double growth_per_window,
                                  std::uint64_t seed) {
  Rng rng(seed);
  workload::WorkloadSpec spec;
  spec.name = "growing";
  spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::Trending(1.2, growth_per_window, 0.02);
  spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::Trending(400.0, growth_per_window * 320.0,
                                        0.02);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.02);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 14.0, &rng);
  EXPECT_TRUE(trace.ok());
  return *std::move(trace);
}

class ForecastFixture : public ::testing::Test {
 protected:
  ForecastFixture()
      : compiled_(catalog::CompiledCatalog::Compile(
            catalog::BuildAzureLikeCatalog(), &pricing_)),
        candidates_(compiled_.ForDeployment(Deployment::kSqlDb).view()) {}

  catalog::DefaultPricing pricing_;
  catalog::CompiledCatalog compiled_;
  catalog::CompiledView candidates_;
  core::NonParametricEstimator estimator_;
};

TEST_F(ForecastFixture, GrowingWorkloadOutgrowsItsSku) {
  const telemetry::PerfTrace trace = GrowingTrace(1.0, 1);
  core::ForecastOptions options;
  options.horizon_months = 12;
  StatusOr<core::GrowthForecast> forecast = core::ForecastUpgrades(
      trace, candidates_, pricing_, estimator_, "DB_GP_Gen5_2", options);
  ASSERT_TRUE(forecast.ok());
  ASSERT_EQ(forecast->timeline.size(), 12u);
  // Fitted growth is positive and roughly 1 core per 14-day window ->
  // ~2.1/month.
  EXPECT_GT(forecast->monthly_growth.Get(ResourceDim::kCpu), 1.0);
  // The 2-core SKU is outgrown within the year...
  EXPECT_GT(forecast->upgrade_due_month, 0);
  EXPECT_LE(forecast->upgrade_due_month, 12);
  // ...and its throttling probability is non-decreasing along the horizon.
  for (std::size_t i = 1; i < forecast->timeline.size(); ++i) {
    EXPECT_GE(forecast->timeline[i].current_sku_probability,
              forecast->timeline[i - 1].current_sku_probability - 1e-9);
  }
  // Recommended SKUs never get cheaper as demand grows.
  for (std::size_t i = 1; i < forecast->timeline.size(); ++i) {
    EXPECT_GE(forecast->timeline[i].recommended_monthly_cost,
              forecast->timeline[i - 1].recommended_monthly_cost - 1e-9);
  }
}

TEST_F(ForecastFixture, SteadyWorkloadNeverUpgrades) {
  Rng rng(2);
  workload::WorkloadSpec spec;
  spec.name = "steady";
  spec.dims[ResourceDim::kCpu] = workload::DimensionSpec::Steady(0.8, 0.02);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.02);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 14.0, &rng);
  ASSERT_TRUE(trace.ok());
  StatusOr<core::GrowthForecast> forecast = core::ForecastUpgrades(
      *trace, candidates_, pricing_, estimator_, "DB_GP_Gen5_2");
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(forecast->upgrade_due_month, 0);
  EXPECT_NEAR(forecast->monthly_growth.Get(ResourceDim::kCpu), 0.0, 0.1);
}

TEST_F(ForecastFixture, SteeperGrowthUpgradesSooner) {
  StatusOr<core::GrowthForecast> slow = core::ForecastUpgrades(
      GrowingTrace(0.6, 3), candidates_, pricing_, estimator_,
      "DB_GP_Gen5_2");
  StatusOr<core::GrowthForecast> fast = core::ForecastUpgrades(
      GrowingTrace(3.0, 3), candidates_, pricing_, estimator_,
      "DB_GP_Gen5_2");
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  ASSERT_GT(fast->upgrade_due_month, 0);
  if (slow->upgrade_due_month > 0) {
    EXPECT_LE(fast->upgrade_due_month, slow->upgrade_due_month);
  }
}

TEST_F(ForecastFixture, LatencyFrozenByDefault) {
  const telemetry::PerfTrace trace = GrowingTrace(1.0, 4);
  StatusOr<core::GrowthForecast> forecast = core::ForecastUpgrades(
      trace, candidates_, pricing_, estimator_, "");
  ASSERT_TRUE(forecast.ok());
  EXPECT_DOUBLE_EQ(
      forecast->monthly_growth.Get(ResourceDim::kIoLatencyMs), 0.0);
}

TEST_F(ForecastFixture, ValidatesInputs) {
  const telemetry::PerfTrace trace = GrowingTrace(1.0, 5);
  core::ForecastOptions bad_horizon;
  bad_horizon.horizon_months = 0;
  EXPECT_FALSE(core::ForecastUpgrades(trace, candidates_, pricing_,
                                      estimator_, "", bad_horizon)
                   .ok());
  EXPECT_FALSE(core::ForecastUpgrades(telemetry::PerfTrace(), candidates_,
                                      pricing_, estimator_, "")
                   .ok());
  EXPECT_FALSE(
      core::ForecastUpgrades(trace, {}, pricing_, estimator_, "").ok());
  // Unknown current SKU surfaces as an error, not silence.
  EXPECT_FALSE(core::ForecastUpgrades(trace, candidates_, pricing_,
                                      estimator_, "NOPE")
                   .ok());
}

// --------------------------------------------------------------- CLI.

TEST(CliParseTest, CommandAndFlags) {
  StatusOr<dma::CliOptions> options = dma::ParseCliArgs(
      {"assess", "--trace", "t.csv", "--confidence", "--target", "mi"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->command, "assess");
  EXPECT_EQ(options->Get("trace"), "t.csv");
  EXPECT_EQ(options->Get("target"), "mi");
  EXPECT_TRUE(options->Has("confidence"));
  EXPECT_FALSE(options->Has("profiles"));
  EXPECT_EQ(options->Get("missing", "fallback"), "fallback");
}

TEST(CliParseTest, RejectsMalformedArgs) {
  EXPECT_FALSE(dma::ParseCliArgs({}).ok());
  EXPECT_FALSE(dma::ParseCliArgs({"assess", "stray"}).ok());
  EXPECT_FALSE(dma::ParseCliArgs({"assess", "--"}).ok());
}

TEST(CliRunTest, HelpAndUnknownCommand) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"help"}, out), 0);
  EXPECT_NE(out.str().find("Commands:"), std::string::npos);
  std::ostringstream err;
  EXPECT_EQ(dma::CliMain({"frobnicate"}, err), 3);
  EXPECT_NE(err.str().find("unknown command"), std::string::npos);
  std::ostringstream usage;
  EXPECT_EQ(dma::CliMain({"assess", "stray"}, usage), 2);
}

class CliFlowTest : public ::testing::Test {
 protected:
  static std::string TempPath(const char* name) {
    return testing::TempDir() + "/" + name;
  }

  // Stage a trace file once for the suite.
  static void SetUpTestSuite() {
    Rng rng(31);
    workload::WorkloadSpec spec;
    spec.name = "cli";
    spec.dims[ResourceDim::kCpu] =
        workload::DimensionSpec::DailyPeriodic(1.2, 0.8);
    spec.dims[ResourceDim::kIops] =
        workload::DimensionSpec::DailyPeriodic(400.0, 250.0);
    spec.dims[ResourceDim::kIoLatencyMs] =
        workload::DimensionSpec::Steady(7.0, 0.02);
    StatusOr<telemetry::PerfTrace> trace =
        workload::GenerateTrace(spec, 7.0, &rng);
    ASSERT_TRUE(trace.ok());
    ASSERT_TRUE(
        telemetry::WriteTraceFile(*trace, TempPath("cli_trace.csv")).ok());
  }
};

TEST_F(CliFlowTest, CatalogDumpAndReload) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"catalog", "--out", TempPath("cli_skus.csv")}, out),
            0);
  EXPECT_NE(out.str().find("156 SKUs"), std::string::npos);
  // Extended catalog is bigger.
  std::ostringstream extended;
  EXPECT_EQ(dma::CliMain({"catalog", "--extended", "--out",
                          TempPath("cli_skus_ext.csv")},
                         extended),
            0);
  EXPECT_NE(extended.str().find("209 SKUs"), std::string::npos);
}

TEST_F(CliFlowTest, FitProfilesThenAssessFromFiles) {
  std::ostringstream fit;
  EXPECT_EQ(dma::CliMain({"fit-profiles", "--deployment", "db",
                          "--customers", "40", "--seed", "3", "--out",
                          TempPath("cli_prof.csv")},
                         fit),
            0);
  std::ostringstream assess;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_trace.csv"),
                          "--profiles", TempPath("cli_prof.csv")},
                         assess),
            0);
  const std::string report = assess.str();
  EXPECT_NE(report.find("Doppler recommendation"), std::string::npos);
  EXPECT_NE(report.find("SQL DB"), std::string::npos);
  EXPECT_NE(report.find("Legacy baseline"), std::string::npos);
  // No on-the-fly fitting message: profiles came from the file.
  EXPECT_EQ(report.find("fitting the group model offline"),
            std::string::npos);
}

// The human report minus its wall-clock stage-timings line.
std::string ReportWithoutTimings(const std::string& report) {
  std::istringstream in(report);
  std::string line;
  std::string kept;
  while (std::getline(in, line)) {
    if (line.rfind("Stage timings:", 0) == 0) continue;
    kept += line + "\n";
  }
  return kept;
}

TEST_F(CliFlowTest, CrlfAndByteOrderMarkTracesReportLikeLf) {
  std::ostringstream fit;
  ASSERT_EQ(dma::CliMain({"fit-profiles", "--deployment", "db",
                          "--customers", "40", "--seed", "3", "--out",
                          TempPath("cli_eol_prof.csv")},
                         fit),
            0);
  // Its own trace files: ctest runs each test of the suite in a separate
  // process, and those rewrite the shared cli_trace.csv concurrently.
  const std::string lf =
      telemetry::TraceToCsv(GrowingTrace(0.0, 41)).ToString();
  std::string crlf;
  for (char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::ofstream(TempPath("cli_eol_lf.csv"), std::ios::binary) << lf;
  std::ofstream(TempPath("cli_eol_crlf.csv"), std::ios::binary) << crlf;
  std::ofstream(TempPath("cli_eol_bom.csv"), std::ios::binary)
      << "\xEF\xBB\xBF" << lf;

  auto assess = [](const std::string& trace) {
    std::ostringstream out;
    EXPECT_EQ(dma::CliMain({"assess", "--trace", trace, "--profiles",
                            TempPath("cli_eol_prof.csv")},
                           out),
              0)
        << out.str();
    return ReportWithoutTimings(out.str());
  };
  const std::string want = assess(TempPath("cli_eol_lf.csv"));
  EXPECT_NE(want.find("Doppler recommendation"), std::string::npos);
  EXPECT_EQ(assess(TempPath("cli_eol_crlf.csv")), want);
  EXPECT_EQ(assess(TempPath("cli_eol_bom.csv")), want);
}

TEST_F(CliFlowTest, AssessRequiresTrace) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"assess"}, out), 3);
  EXPECT_NE(out.str().find("--trace"), std::string::npos);
}

TEST_F(CliFlowTest, SynthCommand) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"synth", "--trace", TempPath("cli_trace.csv")},
                         out),
            0);
  EXPECT_NE(out.str().find("Synthesized workload"), std::string::npos);
  EXPECT_NE(out.str().find("Fit error"), std::string::npos);
}

TEST_F(CliFlowTest, ForecastCommand) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"forecast", "--trace", TempPath("cli_trace.csv"),
                          "--months", "3", "--current-sku", "DB_GP_Gen5_2"},
                         out),
            0);
  EXPECT_NE(out.str().find("Month"), std::string::npos);
  EXPECT_NE(out.str().find("Right-sized SKU"), std::string::npos);
}

TEST_F(CliFlowTest, DriftCommand) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"drift", "--trace", TempPath("cli_trace.csv"),
                          "--current-sku", "DB_GP_Gen5_2"},
                         out),
            0);
  EXPECT_NE(out.str().find("SKU change needed"), std::string::npos);
  std::ostringstream missing;
  EXPECT_EQ(dma::CliMain({"drift", "--trace", TempPath("cli_trace.csv")},
                         missing),
            3);
}

TEST_F(CliFlowTest, AssessJsonIsWellFormed) {
  std::ostringstream fit;
  ASSERT_EQ(dma::CliMain({"fit-profiles", "--deployment", "db",
                          "--customers", "30", "--seed", "4", "--out",
                          TempPath("cli_prof_json.csv")},
                         fit),
            0);
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_trace.csv"),
                          "--profiles", TempPath("cli_prof_json.csv"),
                          "--json"},
                         out),
            0);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{", 0), 0u);  // Starts with an object.
  EXPECT_NE(json.find("\"elastic\""), std::string::npos);
  EXPECT_NE(json.find("\"negotiability\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(CliFlowTest, BadFlagValuesSurfaceErrors) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"forecast", "--trace", TempPath("cli_trace.csv"),
                          "--months", "zero"},
                         out),
            3);
  EXPECT_NE(out.str().find("positive integer"), std::string::npos);
  std::ostringstream bad_deployment;
  EXPECT_EQ(dma::CliMain({"fit-profiles", "--deployment", "oracle"},
                         bad_deployment),
            3);
}

// ------------------------------------------------ Typed exit codes.

TEST(CliExitCodeTest, StatusCodesMapToDistinctNonzeroExitCodes) {
  EXPECT_EQ(dma::ExitCodeForStatus(OkStatus()), 0);
  EXPECT_EQ(dma::ExitCodeForStatus(InvalidArgumentError("x")), 3);
  EXPECT_EQ(dma::ExitCodeForStatus(NotFoundError("x")), 4);
  EXPECT_EQ(dma::ExitCodeForStatus(FailedPreconditionError("x")), 5);
  EXPECT_EQ(dma::ExitCodeForStatus(OutOfRangeError("x")), 6);
  EXPECT_EQ(dma::ExitCodeForStatus(UnavailableError("x")), 7);
  EXPECT_EQ(dma::ExitCodeForStatus(InternalError("x")), 8);
}

TEST_F(CliFlowTest, MissingTraceFileExitsUnavailable) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"assess", "--trace",
                          TempPath("does_not_exist.csv")},
                         out),
            7);
}

TEST_F(CliFlowTest, UnknownQualityPolicyRejected) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_trace.csv"),
                          "--quality", "lenient"},
                         out),
            3);
  EXPECT_NE(out.str().find("quality policy"), std::string::npos);
}

TEST_F(CliFlowTest, StrictQualityRejectsDirtyTraceWithTypedExit) {
  // A trace with a one-slot collector gap: strict refuses, repair assesses.
  CsvTable dirty({"t_seconds", "cpu", "iops"});
  for (int i = 0; i < 40; ++i) {
    if (i == 20) continue;
    (void)dirty.AddRow({std::to_string(i * 600),
                        FormatDouble(0.5 + 0.1 * (i % 7), 2),
                        FormatDouble(100.0 + 10.0 * (i % 5), 2)});
  }
  ASSERT_TRUE(dirty.WriteFile(TempPath("cli_dirty.csv")).ok());

  std::ostringstream strict;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_dirty.csv"),
                          "--quality", "strict"},
                         strict),
            5);
  EXPECT_NE(strict.str().find("FAILED_PRECONDITION"), std::string::npos);
}

TEST_F(CliFlowTest, RepairQualitySurfacesSummaryAndJsonReport) {
  CsvTable dirty({"t_seconds", "cpu", "iops"});
  for (int i = 0; i < 40; ++i) {
    if (i == 20) continue;
    (void)dirty.AddRow({std::to_string(i * 600),
                        i == 5 ? "nan" : FormatDouble(0.5 + 0.1 * (i % 7), 2),
                        FormatDouble(100.0 + 10.0 * (i % 5), 2)});
  }
  ASSERT_TRUE(dirty.WriteFile(TempPath("cli_dirty2.csv")).ok());

  std::ostringstream fit;
  ASSERT_EQ(dma::CliMain({"fit-profiles", "--deployment", "db",
                          "--customers", "30", "--seed", "4", "--out",
                          TempPath("cli_prof_q.csv")},
                         fit),
            0);
  std::ostringstream human;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_dirty2.csv"),
                          "--profiles", TempPath("cli_prof_q.csv")},
                         human),
            0);
  EXPECT_NE(human.str().find("Telemetry quality:"), std::string::npos);
  EXPECT_NE(human.str().find("gap"), std::string::npos);

  std::ostringstream json_out;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_dirty2.csv"),
                          "--profiles", TempPath("cli_prof_q.csv"),
                          "--json"},
                         json_out),
            0);
  const std::string json = json_out.str();
  EXPECT_NE(json.find("\"quality\""), std::string::npos);
  EXPECT_NE(json.find("\"non_finite\""), std::string::npos);
  EXPECT_NE(json.find("\"gap\""), std::string::npos);
}

}  // namespace
}  // namespace doppler
