#include "core/confidence.h"

#include <algorithm>
#include <vector>

#include "exec/thread_pool.h"
#include "stats/bootstrap.h"

namespace doppler::core {

StatusOr<ConfidenceResult> ScoreConfidence(const telemetry::PerfTrace& trace,
                                           const RecommendFn& recommend,
                                           const ConfidenceOptions& options,
                                           Rng* rng,
                                           exec::ThreadPool* executor) {
  if (!recommend) return InvalidArgumentError("recommend function not set");
  if (rng == nullptr) return InvalidArgumentError("rng must not be null");
  if (options.runs <= 0) return InvalidArgumentError("runs must be positive");
  if (trace.num_samples() == 0) {
    return InvalidArgumentError("performance trace is empty");
  }

  ConfidenceResult result;
  DOPPLER_ASSIGN_OR_RETURN(result.original, recommend(trace));

  const std::size_t window_samples = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.window_days * 86400.0 /
                                  static_cast<double>(trace.interval_seconds())));

  // Every run's indices are drawn up front: the draws are the only RNG
  // use, so they stay in the serial order whatever runs the reruns.
  const std::size_t runs = static_cast<std::size_t>(options.runs);
  std::vector<std::vector<std::size_t>> draws(runs);
  stats::Bootstrap bootstrap(trace.num_samples(), rng);
  for (std::vector<std::size_t>& indices : draws) {
    switch (options.scheme) {
      case BootstrapScheme::kWindow:
        indices = bootstrap.SampleWindow(window_samples);
        break;
      case BootstrapScheme::kIid:
        indices = bootstrap.SampleWithReplacement(trace.num_samples());
        break;
    }
  }

  std::vector<unsigned char> matches(runs, 0);
  const auto rerun_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t run = begin; run < end; ++run) {
      const telemetry::PerfTrace resampled = trace.Select(draws[run]);
      StatusOr<Recommendation> rerun = recommend(resampled);
      // A failing bootstrap run (e.g. a degenerate window) counts as a
      // non-matching run: it is evidence the recommendation is unstable.
      matches[run] = rerun.ok() && rerun->sku.id == result.original.sku.id;
    }
  };
  if (executor != nullptr && runs > 1) {
    executor->ParallelFor(runs, rerun_range);
  } else {
    rerun_range(0, runs);
  }

  result.runs = options.runs;
  for (unsigned char match : matches) result.matching_runs += match;
  result.score =
      static_cast<double>(result.matching_runs) / static_cast<double>(result.runs);
  return result;
}

}  // namespace doppler::core
