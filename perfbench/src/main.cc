// The benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; every line before it is a
// human-readable note. Exit codes: 0 ok, 1 output mismatch, 2 usage or
// unoptimised build, 3 invalid measurement, 4 the workload failed to run.

#include <cpuid.h>

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "util/json_writer.h"
#include "workloads.h"

namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
}

// Shortest decimal that round-trips: every digit the measurement has.
std::string Number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

int Usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::cerr << "perfbench: refusing to measure an unoptimised build "
               "(build type "
            << PERFBENCH_BUILD_TYPE << ")\n";
  return 2;
#endif
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed '" + value + "'");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0)) {
        return Usage("bad --seconds '" + value + "'");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage("unknown flag '" + flag + "'");
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!have_workload || config.work_dir.empty()) {
    return Usage("--workload and --work-dir are required");
  }
  std::filesystem::create_directories(config.work_dir);

  std::cout << "workload " << config.workload << " seed " << config.seed
            << " seconds " << config.seconds << " trace " << config.trace
            << "\nhost: nproc " << std::thread::hardware_concurrency()
            << ", cpu " << CpuModel() << ", build " << PERFBENCH_BUILD_TYPE
            << std::endl;
  doppler::StatusOr<perfbench::RunReport> report =
      perfbench::RunWorkload(config);
  if (!report.ok()) {
    std::cerr << "perfbench: " << report.status().ToString() << "\n";
    return 4;
  }
  for (const std::string& note : report->notes) std::cout << note << "\n";
  std::cout << "{\"correct\": " << (report->correct ? "true" : "false")
            << ", \"attempted\": " << report->attempted
            << ", \"failed\": " << report->failed << ", \"metrics\": {";
  const char* separator = "";
  for (const perfbench::Metric& metric : report->metrics) {
    std::cout << separator << '"' << doppler::JsonWriter::Escape(metric.name)
              << "\": {\"value\": " << Number(metric.value)
              << ", \"unit\": \"" << doppler::JsonWriter::Escape(metric.unit)
              << "\"}";
    separator = ", ";
  }
  std::cout << "}}" << std::endl;
  if (!report->correct) return 1;
  if (!report->valid) return 3;
  return 0;
}
