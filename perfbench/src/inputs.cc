#include "inputs.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "sim/fault_injector.h"
#include "stats.h"
#include "telemetry/trace_io.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/population.h"

namespace perfbench {
namespace {

using doppler::CsvTable;
using doppler::Rng;
using doppler::StatusOr;
using doppler::telemetry::PerfTrace;

// Daily growth of a drifting monitor customer. With the default 7-day
// window and 25% drift tolerance this re-trips the detector every few days.
constexpr double kDailyGrowth = 1.08;
constexpr int kFirstGrowthDay = 3;

// Repairable fault kinds only: the gate fixes each of these under the
// default repair policy, so a dirtied file costs repair work, not a failure.
doppler::sim::FaultSpec RepairableFault(Rng* rng) {
  static constexpr doppler::sim::FaultKind kKinds[] = {
      doppler::sim::FaultKind::kDropWindow, doppler::sim::FaultKind::kJitter,
      doppler::sim::FaultKind::kDuplicate, doppler::sim::FaultKind::kOutOfOrder,
      doppler::sim::FaultKind::kNanBurst};
  doppler::sim::FaultSpec spec;
  spec.kind = kKinds[rng->UniformInt(5)];
  // 2% of a week is 20 rows: well inside the gate's 48-slot gap bridge.
  spec.magnitude = spec.kind == doppler::sim::FaultKind::kJitter ? 0.1 : 0.02;
  return spec;
}

// Marks exactly round(share * n) of n items, chosen by `rng`: a fixed count
// keeps the work per run from swinging with the seed.
std::vector<char> ChooseExactly(std::size_t n, double share, Rng* rng) {
  std::vector<char> chosen(n, false);
  const std::size_t count =
      std::min(n, static_cast<std::size_t>(share * n + 0.5));
  std::fill(chosen.begin(), chosen.begin() + count, true);
  rng->Shuffle(chosen);
  return chosen;
}

}  // namespace

StatusOr<std::vector<doppler::workload::SyntheticCustomer>> MixedPopulation(
    int customers, double days, std::uint64_t seed) {
  doppler::workload::PopulationOptions options;
  const int flat = static_cast<int>(options.flat_fraction * customers + 0.5);
  const int simple =
      static_cast<int>(options.simple_fraction * customers + 0.5);
  int wanted[3] = {flat, simple, customers - flat - simple};
  options.duration_days = days;
  std::vector<doppler::workload::SyntheticCustomer> kept;
  for (int draw = 0; static_cast<int>(kept.size()) < customers; ++draw) {
    if (draw == 8) {
      return doppler::InternalError("population mix not reachable");
    }
    // The simple family is 3% of draws; drawing 4x the request (at least
    // 400) finds enough of every family in one draw.
    options.num_customers = std::max(customers * 4, 400);
    options.seed = DeriveSeed(seed, "draw" + std::to_string(draw));
    DOPPLER_ASSIGN_OR_RETURN(auto drawn,
                             doppler::workload::GeneratePopulation(options));
    for (auto& customer : drawn) {
      int& left = wanted[static_cast<int>(customer.archetype)];
      if (left == 0) continue;
      --left;
      customer.id.append("-").append(std::to_string(draw));
      kept.push_back(std::move(customer));
    }
  }
  return kept;
}

std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& stream) {
  char bytes[sizeof(seed)];
  std::memcpy(bytes, &seed, sizeof(seed));
  return Fnv1a(stream, Fnv1a(std::string_view(bytes, sizeof(bytes))));
}

std::uint64_t TraceDigest(const PerfTrace& trace, std::uint64_t seed) {
  return Fnv1a(doppler::telemetry::TraceToCsv(trace).ToString(), seed);
}

StatusOr<FleetInputs> MakeFleetInputs(std::uint64_t seed,
                                      const InputSizes& sizes,
                                      const std::string& dir) {
  FleetInputs inputs;
  Rng faults(DeriveSeed(seed, "fleet.faults"));
  for (int b = 0; b < sizes.fleet_batches; ++b) {
    DOPPLER_ASSIGN_OR_RETURN(
        auto customers,
        MixedPopulation(sizes.fleet_batch_traces, 7.0,
                        DeriveSeed(seed, "fleet.batch" + std::to_string(b))));
    const std::string batch_dir = dir + "/batch" + std::to_string(b);
    std::filesystem::create_directories(batch_dir);
    std::vector<TraceFile> files;
    const std::vector<char> dirty =
        ChooseExactly(customers.size(), sizes.fleet_dirty_fraction, &faults);
    for (std::size_t i = 0; i < customers.size(); ++i) {
      const auto& customer = customers[i];
      CsvTable table = doppler::telemetry::TraceToCsv(customer.trace);
      if (dirty[i]) {
        DOPPLER_ASSIGN_OR_RETURN(
            table, doppler::sim::ApplyFaults(table, {RepairableFault(&faults)},
                                             &faults));
        ++inputs.dirty_files;
      }
      TraceFile file{customer.id + ".csv", batch_dir + "/" + customer.id +
                                               ".csv"};
      const std::string text = table.ToString();
      inputs.digest = Fnv1a(file.customer_id, Fnv1a(text, inputs.digest));
      DOPPLER_RETURN_IF_ERROR(table.WriteFile(file.path));
      files.push_back(std::move(file));
    }
    inputs.batches.push_back(std::move(files));
  }
  return inputs;
}

StatusOr<ConfidenceInputs> MakeConfidenceInputs(std::uint64_t seed,
                                                const InputSizes& sizes,
                                                const std::string& dir) {
  ConfidenceInputs inputs;
  DOPPLER_ASSIGN_OR_RETURN(auto customers,
                           MixedPopulation(sizes.confidence_traces, 30.0,
                                      DeriveSeed(seed, "confidence")));
  std::filesystem::create_directories(dir);
  for (const auto& customer : customers) {
    TraceFile file{customer.id + ".csv", dir + "/" + customer.id + ".csv"};
    const CsvTable table = doppler::telemetry::TraceToCsv(customer.trace);
    inputs.digest = Fnv1a(table.ToString(), inputs.digest);
    DOPPLER_RETURN_IF_ERROR(table.WriteFile(file.path));
    inputs.files.push_back(std::move(file));
  }
  return inputs;
}

StatusOr<ServeInputs> MakeServeInputs(std::uint64_t seed,
                                      const InputSizes& sizes) {
  ServeInputs inputs;
  DOPPLER_ASSIGN_OR_RETURN(
      auto customers,
      MixedPopulation(sizes.serve_traces, 7.0, DeriveSeed(seed, "serve")));
  for (auto& customer : customers) {
    inputs.digest = TraceDigest(customer.trace, inputs.digest);
    inputs.customer_ids.push_back(customer.id);
    inputs.traces.push_back(std::move(customer.trace));
  }
  return inputs;
}

std::vector<double> PoissonSchedule(std::uint64_t seed, double rate,
                                    double seconds) {
  // A Poisson process conditioned on its count: round(rate * seconds)
  // arrivals at independent uniform times. Every seed then offers the same
  // load, and only the burst pattern differs.
  Rng rng(DeriveSeed(seed, "serve.schedule"));
  const std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds + 0.5));
  std::vector<double> due(count);
  for (double& t : due) t = rng.Uniform(0.0, seconds);
  std::sort(due.begin(), due.end());
  return due;
}

StatusOr<MonitorInputs> MakeMonitorInputs(std::uint64_t seed,
                                          const InputSizes& sizes) {
  MonitorInputs inputs;
  DOPPLER_ASSIGN_OR_RETURN(
      auto customers,
      MixedPopulation(sizes.monitor_customers, sizes.monitor_days,
                      DeriveSeed(seed, "monitor")));
  Rng drift(DeriveSeed(seed, "monitor.drift"));
  const std::vector<char> drifting =
      ChooseExactly(customers.size(), sizes.monitor_drift_share, &drift);
  constexpr std::size_t kDay = doppler::telemetry::kSamplesPerDay;
  for (std::size_t c = 0; c < customers.size(); ++c) {
    auto& customer = customers[c];
    PerfTrace& trace = customer.trace;
    if (drifting[c]) {
      const std::vector<doppler::catalog::ResourceDim> dims =
          trace.PresentDims();
      const doppler::catalog::ResourceDim dim =
          dims[drift.UniformInt(dims.size())];
      for (int day = kFirstGrowthDay; day < sizes.monitor_days; ++day) {
        DOPPLER_RETURN_IF_ERROR(doppler::workload::RampDimension(
            &trace, dim, static_cast<std::size_t>(day) * kDay, kDailyGrowth));
      }
      ++inputs.drifting_customers;
    }
    inputs.digest = TraceDigest(trace, inputs.digest);
    std::vector<PerfTrace> days;
    for (int day = 0; day < sizes.monitor_days; ++day) {
      days.push_back(trace.Window(static_cast<std::size_t>(day) * kDay, kDay));
    }
    inputs.customer_ids.push_back(customer.id);
    inputs.batches.push_back(std::move(days));
  }
  return inputs;
}

}  // namespace perfbench
