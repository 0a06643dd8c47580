#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Pure measurement arithmetic of the benchmark: the percentile rule, the
// per-window summary, open-loop (due-time) latency, failure accounting and
// input digests. Kept free of any doppler dependency so the unit tests pin
// it down exactly.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of all samples are <= it (rank ceil(p/100 * n), 1-based). No
/// interpolation, so every reported percentile is a value that really
/// occurred. Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// One measured op: when it ended (seconds since its phase started), how
/// many OK operations it completed, and its latency (< 0 when it has none).
struct OpRecord {
  double end_s = 0.0;
  double ok_ops = 0.0;
  double latency_s = -1.0;
};

/// A run's throughput and latency percentiles, each taken per window of
/// consecutive, equal-count records and then summarised by the quartile of
/// windows on the fast side (75th percentile of throughput, 25th of
/// latency). Outside load on a shared host only ever slows a window, and
/// arrives in stretches of seconds: the fast quartile ignores a stretch
/// that spoils up to 70% of a run, while a change that slows every op
/// moves every window. A window's throughput is measured from the previous
/// window's last record (or the phase start) to its own last record.
/// `samples` counts all latencies.
struct WindowedStats {
  double ops_per_s = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  std::size_t samples = 0;
};
WindowedStats FastQuartileOfWindows(const std::vector<OpRecord>& records,
                                    int windows);

/// Open-loop latency: each request is timed from when it was DUE to be
/// sent, not from when the generator got round to sending it, so a stall
/// charges its wait to every request queued behind it. done[i] < 0 marks a
/// request that never completed; its latency is -1.
std::vector<double> DueTimeLatencies(const std::vector<double>& due,
                                     const std::vector<double>& done);

/// Generator lateness of each send (sent - due, floored at 0).
std::vector<double> Lateness(const std::vector<double>& due,
                             const std::vector<double>& sent);

/// How one attempted op ended. Every outcome except kOk counts as failed;
/// a degraded serve response (confidence shed under load) is a failure
/// too, because the caller asked for a confidence score and got none.
enum class OpOutcome { kOk, kDegraded, kShed, kExpired, kFailed };

/// Failure and SLO accounting over the ops of one run.
class OpLedger {
 public:
  /// `latency_s` is ignored unless the op is kOk: a failed or degraded op
  /// misses the latency limit whatever its latency was.
  void Add(OpOutcome outcome, double latency_s, double limit_s);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t ok() const { return ok_; }
  std::uint64_t failed() const { return attempted_ - ok_; }
  /// OK ops within the latency limit over attempted ops.
  double slo_met_fraction() const;
  double failed_fraction() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t slo_met_ = 0;
};

/// 64-bit FNV-1a over bytes, chainable through `seed`.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
