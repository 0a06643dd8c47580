#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four workloads, each driving the library's public entry points the
// way one CLI surface does (see perfbench/README.md for why each exists):
//   fleet_week        assess-batch          closed batches
//   confidence_month  assess --confidence   closed loop, one client
//   serve_open        serve --confidence    open loop, Poisson arrivals
//   monitor_drift     monitor               round-robin daily ticks

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "util/statusor.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory for generated input files and the span dump.
  std::string work_dir;
  InputSizes sizes;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  /// Every checked output matched the single-thread reference.
  bool correct = true;
  /// The measurement itself is trustworthy (serve: the load generator
  /// kept to its schedule).
  bool valid = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (sample counts, input
  /// digests, tracing overhead, mismatches).
  std::vector<std::string> notes;
};

doppler::StatusOr<RunReport> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
