#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input generation for the four workloads. The benchmark derives
// every input from its --seed argument; the doppler program only ever sees
// the generated traces (as CSV files or in-memory PerfTraces), never the
// seed. Each maker returns a digest of what it generated, so the tests can
// show that one seed always yields the same inputs and two seeds differ.

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/perf_trace.h"
#include "util/statusor.h"
#include "workload/population.h"

namespace perfbench {

/// Input sizes per workload; the unit tests shrink them.
struct InputSizes {
  int fleet_batches = 1;
  int fleet_batch_traces = 200;
  double fleet_dirty_fraction = 0.10;
  int confidence_traces = 24;
  int serve_traces = 64;
  int monitor_customers = 48;
  int monitor_days = 30;
  double monitor_drift_share = 0.5;
};

/// Sub-seed for one named input stream of a workload seed.
std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& stream);

/// `customers` synthetic DB customers whose curve families follow the
/// default population mix exactly (flat/simple/complex in the proportions
/// of workload::PopulationOptions), drawn first-come per family from larger
/// seeded populations. A fixed mix keeps the work per op from swinging with
/// the seed.
doppler::StatusOr<std::vector<doppler::workload::SyntheticCustomer>>
MixedPopulation(int customers, double days, std::uint64_t seed);

struct TraceFile {
  std::string customer_id;  ///< The file name, as assess-batch names it.
  std::string path;
};

/// fleet_week: batches of one-week DB traces from GeneratePopulation with
/// the default curve-family mix, written as CSV under `dir`; a seeded share
/// of files is dirtied with repairable fault kinds.
struct FleetInputs {
  std::vector<std::vector<TraceFile>> batches;
  int dirty_files = 0;
  std::uint64_t digest = 0;
};
doppler::StatusOr<FleetInputs> MakeFleetInputs(std::uint64_t seed,
                                               const InputSizes& sizes,
                                               const std::string& dir);

/// confidence_month: clean 30-day DB trace CSVs under `dir`.
struct ConfidenceInputs {
  std::vector<TraceFile> files;
  std::uint64_t digest = 0;
};
doppler::StatusOr<ConfidenceInputs> MakeConfidenceInputs(
    std::uint64_t seed, const InputSizes& sizes, const std::string& dir);

/// serve_open: in-memory one-week traces.
struct ServeInputs {
  std::vector<std::string> customer_ids;
  std::vector<doppler::telemetry::PerfTrace> traces;
  std::uint64_t digest = 0;
};
doppler::StatusOr<ServeInputs> MakeServeInputs(std::uint64_t seed,
                                               const InputSizes& sizes);

/// Sorted arrival offsets (seconds from the start) of a Poisson process at
/// `rate` requests per second over [0, seconds), conditioned on carrying
/// exactly round(rate * seconds) arrivals (at least one).
std::vector<double> PoissonSchedule(std::uint64_t seed, double rate,
                                    double seconds);

/// monitor_drift: per customer, `monitor_days` daily (144-row) batches of
/// one 30-day trace. A seeded share of customers grows one dimension by a
/// fixed factor every day from day 3 on (repeated RampDimension steps), so
/// drift-gated re-assessment keeps recurring; the rest stay stationary.
struct MonitorInputs {
  std::vector<std::string> customer_ids;
  /// batches[c][d] is customer c's day-d batch.
  std::vector<std::vector<doppler::telemetry::PerfTrace>> batches;
  int drifting_customers = 0;
  std::uint64_t digest = 0;
};
doppler::StatusOr<MonitorInputs> MakeMonitorInputs(std::uint64_t seed,
                                                   const InputSizes& sizes);

/// Digest of a trace's CSV rendering (what the gate would read).
std::uint64_t TraceDigest(const doppler::telemetry::PerfTrace& trace,
                          std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
