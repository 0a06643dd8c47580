// Table 2: "File IO characteristics associated with various Azure SQL MI
// General Purpose (GP) SKUs" — the premium-disk storage tier ladder.
//
// Also demonstrates the Step 1/Step 2 mechanics the table feeds: a
// three-file layout mapping to per-file disks whose IOPS limits sum to the
// instance limit.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "catalog/file_layout.h"
#include "catalog/premium_disk.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace doppler;

int main() {
  bench::Banner(
      "Table 2 - MI GP premium-disk storage tiers",
      "P10: [0,128]GiB/500 IOPS/100 MiB/s ... P60: (4,8]TiB/12500 IOPS/480 "
      "MiB/s");

  TablePrinter table({"Storage Tier", "File size", "IOPS", "Throughput"});
  for (const catalog::PremiumDiskTier& tier : catalog::PremiumDiskTiers()) {
    auto size_label = [](double gib) {
      if (gib >= 1024.0) return FormatDouble(gib / 1024.0, 0) + " TiB";
      return FormatDouble(gib, 0) + " GiB";
    };
    std::string range = tier.min_size_gib == 0.0 ? "[0, " : "(";
    if (tier.min_size_gib != 0.0) {
      range += size_label(tier.min_size_gib);
      range += ", ";
    }
    range += size_label(tier.max_size_gib);
    range += "]";
    table.AddRow({tier.name, range,
                  FormatDouble(tier.iops, 0),
                  FormatDouble(tier.throughput_mibps, 0) + " MiB/s"});
  }
  table.Print(std::cout);

  // The paper's worked example: "a customer can choose an MI SKU that
  // creates 3 files that can each fit within a 128GB disk".
  const catalog::FileLayout layout = catalog::UniformLayout(300.0, 3);
  const catalog::LayoutLimits limits =
      bench::Unwrap(catalog::ComputeLayoutLimits(layout), "layout limits");
  std::printf(
      "\nStep 2 example: 3 files x 100 GiB -> 3 x %s disks -> instance "
      "limits: %.0f IOPS, %.0f MiB/s\n",
      limits.tiers[0].name.c_str(), limits.total_iops,
      limits.total_throughput_mibps);
  return 0;
}
