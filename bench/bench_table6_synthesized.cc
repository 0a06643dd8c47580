// Table 6 / Figures 12 & 13: the synthesized-workload validation (§5.4).
//
// Table 6 lists the four SKUs the paper replayed on (4/8/16/32 cores,
// doubling memory/cache/IOPS). Fig. 12 shows the price-performance curve
// for the synthesized workload over those SKUs, with SKU2 optimal.
// Fig. 13 shows the replayed perf counters: SKU1 is severely throttled
// (latency blows up), SKU2 is right-sized, SKU3/4 buy nothing extra.
//
// We synthesise a workload from a customer history (benchmark pieces at
// fitted scale/rate/concurrency, no queries touched), build the curve over
// a four-SKU ladder shaped like Table 6, pick the optimum, and replay on
// all four.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/price_performance.h"
#include "dma/resource_report.h"
#include "sim/replayer.h"
#include "stats/descriptive.h"
#include "util/ascii_plot.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/benchmark_mix.h"
#include "workload/generator.h"

using namespace doppler;
using catalog::ResourceDim;

namespace {

// The Table 6 ladder: 4/8/16/32 cores with doubling memory and IOPS.
std::vector<catalog::Sku> Table6Skus() {
  std::vector<catalog::Sku> skus;
  const struct {
    const char* id;
    int vcores;
    double memory_gb;
    double iops;
  } rows[] = {
      {"SKU1", 4, 16.0, 6000.0},
      {"SKU2", 8, 32.0, 12000.0},
      {"SKU3", 16, 64.0, 154000.0},
      {"SKU4", 32, 128.0, 308000.0},
  };
  for (const auto& row : rows) {
    catalog::Sku sku;
    sku.id = row.id;
    sku.vcores = row.vcores;
    sku.max_memory_gb = row.memory_gb;
    sku.max_iops = row.iops;
    sku.max_log_rate_mbps = 3.0 * row.vcores;
    sku.min_io_latency_ms = 2.0;
    sku.max_data_gb = 2048.0;  // "2TB SSD" shared across the ladder.
    sku.price_per_hour = 0.30 * row.vcores;
    skus.push_back(sku);
  }
  return skus;
}

}  // namespace

int main() {
  bench::Banner(
      "Table 6 / Figs 12-13 - synthesized workload replayed on a 4-SKU "
      "ladder",
      "Doppler picks SKU2 (8 cores); replay shows SKU1 severely throttled "
      "with inflated IO latency while SKU2 meets the workload");

  // The customer's performance history (counters only).
  Rng rng(1212);
  workload::WorkloadSpec history_spec;
  history_spec.name = "sec54-customer";
  history_spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::DailyPeriodic(3.5, 2.5);
  history_spec.dims[ResourceDim::kMemoryGb] =
      workload::DimensionSpec::Steady(20.0, 0.03);
  history_spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::DailyPeriodic(5500.0, 3500.0);
  history_spec.dims[ResourceDim::kLogRateMbps] =
      workload::DimensionSpec::DailyPeriodic(6.0, 4.0);
  history_spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(4.0, 0.04);
  const telemetry::PerfTrace history = bench::Unwrap(
      workload::GenerateTrace(history_spec, 14.0, &rng), "history");

  // Synthesise the workload (scale factor, rate, concurrency fitted to the
  // history).
  const workload::SynthesizedWorkload synth = bench::Unwrap(
      workload::SynthesizeFromHistory(history), "synthesis");
  std::printf("Synthesized workload: %s (fit error %.1f%%)\n\n",
              synth.Describe().c_str(), synth.fit_error * 100.0);

  // Table 6.
  TablePrinter table6({"ID", "vCPU", "Memory", "Throughput", "Price/h"});
  for (const catalog::Sku& sku : Table6Skus()) {
    std::string price = "$";
    price += FormatDouble(sku.price_per_hour, 2);
    table6.AddRow({sku.id, std::to_string(sku.vcores) + " cores",
                   FormatDouble(sku.max_memory_gb, 0) + " GB",
                   FormatDouble(sku.max_iops, 0) + " IOPs",
                   price});
  }
  std::puts("Table 6 - SKUs used to execute synthetic workloads:");
  table6.Print(std::cout);

  // Fig. 12: the curve over the four SKUs, from the history.
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  catalog::SkuCatalog table6_catalog;
  for (const catalog::Sku& sku : Table6Skus()) table6_catalog.Add(sku);
  const catalog::CompiledCatalog table6_compiled =
      catalog::CompiledCatalog::Compile(std::move(table6_catalog), &pricing);
  const core::PricePerformanceCurve curve = bench::Unwrap(
      core::PricePerformanceCurve::Build(
          history,
          table6_compiled.ForDeployment(catalog::Deployment::kSqlDb).view(),
          table6_compiled.pricing(), estimator),
      "curve");
  std::puts("\nFigure 12 - price-performance curve for the synthesized "
            "workload:");
  std::cout << dma::RenderCurveReport(curve, 4);
  const core::PricePerformancePoint optimal =
      bench::Unwrap(curve.CheapestFullySatisfying(0.02), "optimal point");
  std::printf("Doppler's optimal SKU: %s (paper: SKU2)\n\n",
              optimal.sku.id.c_str());

  // Fig. 13: replay the synthesised demand on all four SKUs.
  Rng render_rng(1313);
  const telemetry::PerfTrace demand = bench::Unwrap(
      workload::RenderDemandTrace(synth, 7.0, &render_rng), "demand render");

  std::puts("Figure 13 - replayed performance counters per SKU:");
  TablePrinter table13({"SKU", "Observed throttling", "CPU used (mean)",
                        "IO latency mean/p95 (ms)", "Verdict"});
  for (const catalog::Sku& sku : Table6Skus()) {
    const sim::ReplayResult replay =
        bench::Unwrap(sim::ReplayOnSku(demand, sku), "replay");
    const std::vector<double>& latency =
        replay.observed.Values(ResourceDim::kIoLatencyMs);
    const char* verdict = replay.report.any_fraction > 0.3
                              ? "severely throttled"
                              : (replay.report.any_fraction > 0.05
                                     ? "borderline"
                                     : "meets the workload");
    table13.AddRow(
        {sku.id, FormatPercent(replay.report.any_fraction, 1),
         FormatDouble(stats::Mean(replay.observed.Values(ResourceDim::kCpu)),
                      2),
         FormatDouble(stats::Mean(latency), 2) + " / " +
             FormatDouble(stats::Quantile(latency, 0.95), 2),
         verdict});
  }
  table13.Print(std::cout);

  // The latency traces, SKU1 vs the optimal.
  const sim::ReplayResult sku1 =
      bench::Unwrap(sim::ReplayOnSku(demand, Table6Skus()[0]), "replay sku1");
  const sim::ReplayResult best =
      bench::Unwrap(sim::ReplayOnSku(demand, optimal.sku), "replay best");
  PlotOptions plot;
  plot.title = "\nIO latency under replay: '*' = SKU1, 'o' = " +
               optimal.sku.id;
  plot.height = 12;
  std::cout << DualLinePlot(sku1.observed.Values(ResourceDim::kIoLatencyMs),
                            best.observed.Values(ResourceDim::kIoLatencyMs),
                            plot);
  return 0;
}
