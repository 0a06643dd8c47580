// Figure 1: "Examples of 6 Azure SQL SKU offerings."
//
// Prints the same six rows (DB BC/GP at 2, 4, 6 vCores, Gen5) from the
// generated catalog, side by side with the paper's numbers, plus the
// catalog-wide census backing the paper's "over 200 different PaaS cloud
// SKUs" claim (we generate 150+, spanning the same structure).

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "catalog/catalog.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace doppler;

int main() {
  bench::Banner(
      "Figure 1 - sample of Azure SQL DB SKU offerings",
      "BC2: 1024GB/10.4GB/8000 IOPS/24MBps/1ms/$1.36h ... GP6: "
      "1536GB/31.1GB/1920 IOPS/22.5MBps/5ms/$1.52h");

  const catalog::SkuCatalog full_catalog = catalog::BuildAzureLikeCatalog();

  TablePrinter table({"Service Tier", "#vCores", "MaxDataSize", "MaxMemory",
                      "MaxDataIOPS", "MaxLogRate", "MinIOLatency", "Price"});
  // The figure interleaves BC and GP at each vCore step.
  for (int vcores : {2, 4, 6}) {
    for (const char* tier : {"BC", "GP"}) {
      const std::string id =
          std::string("DB_") + tier + "_Gen5_" + std::to_string(vcores);
      const catalog::Sku sku =
          bench::Unwrap(full_catalog.FindById(id), "catalog lookup");
      std::string price = "$";
      price += FormatDouble(sku.price_per_hour, 2);
      price += "/h";
      table.AddRow({catalog::ServiceTierName(sku.tier),
                    std::to_string(sku.vcores),
                    FormatDouble(sku.max_data_gb, 0) + " GB",
                    FormatDouble(sku.max_memory_gb, 1) + " GB",
                    FormatDouble(sku.max_iops, 0),
                    FormatDouble(sku.max_log_rate_mbps, 1) + " MBps",
                    FormatDouble(sku.min_io_latency_ms, 0) + " ms",
                    price});
    }
  }
  table.Print(std::cout);

  // Catalog census.
  int db = 0, mi = 0, gp = 0, bc = 0;
  for (const catalog::Sku& sku : full_catalog.skus()) {
    (sku.deployment == catalog::Deployment::kSqlDb ? db : mi) += 1;
    (sku.tier == catalog::ServiceTier::kGeneralPurpose ? gp : bc) += 1;
  }
  std::printf(
      "\nGenerated catalog: %zu SKUs (%d SQL DB, %d SQL MI; %d GP, %d BC)\n"
      "Paper: 'Microsoft Azure alone has over 200 different PaaS cloud "
      "SKUs'.\n",
      full_catalog.size(), db, mi, gp, bc);
  return 0;
}
