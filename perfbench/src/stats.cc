#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

WindowedStats FastQuartileOfWindows(const std::vector<OpRecord>& records,
                                    int windows) {
  WindowedStats out;
  const std::size_t n = records.size();
  const std::size_t w =
      std::min<std::size_t>(n, static_cast<std::size_t>(std::max(windows, 1)));
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p95s;
  OpRecord previous;  // The phase start.
  for (std::size_t k = 0; k < w; ++k) {
    const std::size_t begin = k * n / w;
    const std::size_t end = (k + 1) * n / w;
    double ok = 0.0;
    std::vector<double> latencies;
    for (std::size_t i = begin; i < end; ++i) {
      ok += records[i].ok_ops;
      if (records[i].latency_s >= 0.0) {
        latencies.push_back(records[i].latency_s);
      }
    }
    const OpRecord& last = records[end - 1];
    const double elapsed = last.end_s - previous.end_s;
    if (elapsed > 0.0) rates.push_back(ok / elapsed);
    previous = last;
    out.samples += latencies.size();
    if (latencies.empty()) continue;
    p50s.push_back(Percentile(latencies, 50.0));
    p95s.push_back(Percentile(latencies, 95.0));
  }
  out.ops_per_s = Percentile(rates, 75.0);
  out.p50 = Percentile(p50s, 25.0);
  out.p95 = Percentile(p95s, 25.0);
  return out;
}

std::vector<double> DueTimeLatencies(const std::vector<double>& due,
                                     const std::vector<double>& done) {
  const std::size_t n = std::min(due.size(), done.size());
  std::vector<double> out(n, -1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (done[i] >= 0.0) out[i] = done[i] - due[i];
  }
  return out;
}

std::vector<double> Lateness(const std::vector<double>& due,
                             const std::vector<double>& sent) {
  std::vector<double> out;
  const std::size_t n = std::min(due.size(), sent.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::max(0.0, sent[i] - due[i]));
  }
  return out;
}

void OpLedger::Add(OpOutcome outcome, double latency_s, double limit_s) {
  ++attempted_;
  if (outcome != OpOutcome::kOk) return;
  ++ok_;
  if (latency_s <= limit_s) ++slo_met_;
}

double OpLedger::slo_met_fraction() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(slo_met_) /
                               static_cast<double>(attempted_);
}

double OpLedger::failed_fraction() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed()) /
                               static_cast<double>(attempted_);
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfbench
