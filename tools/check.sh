#!/usr/bin/env bash
# Repo hygiene + sanitizer gate:
#   1. fails if generated build trees are tracked by git,
#   2. builds with AddressSanitizer + UBSan and runs the full tier-1 suite,
#      with NDEBUG left undefined so every assert() in src/ runs,
#   3. builds the end-to-end benchmark (perfbench/, Release, under
#      <build-dir>/perfbench) and runs its unit tests, so a library API
#      change that breaks the benchmark's build fails here,
#   4. builds with ThreadSanitizer and runs the obs concurrency tests, the
#      exec thread-pool / fleet determinism suite, the compiled-catalog
#      / staged-pipeline suites (many workers reading the one shared
#      compiled snapshot), the throttling suite (scans, a stats cache and
#      bound KDE fits shared by concurrent workers), the recommender suite
#      (bootstrap reruns fanned out on a pool), the serve suite (admission
#      queue, deadlines, RCU snapshot swaps), and the stream suite (readers
#      racing the appender on a customer window).
# Usage: tools/check.sh [build-dir] (default build-asan; the TSan tree
# lands next to it with a -tsan suffix).
#
# Bench-regression mode: tools/check.sh --bench [build-dir] (default
# build) builds bench_perf_engine, runs the assessment + serve-overload +
# cross-target benchmarks, and compares the per-curve evaluation-cost
# counters (ppm.samples_scanned, plus the per-target
# ppm.samples_scanned.<target-id> splits, and stats.rows_sorted), the
# snapshot-compile count (catalog.targets_compiled, exact) and the
# serving-path admission counters (serve.admitted/shed/expired) against
# the committed BENCH_pipeline.json via tools/bench_check.py, plus the
# flight-recorder record count (obs.flight.recorded, exact). Counter-based,
# so it is stable on a 1-CPU machine where wall time is not. After an
# INTENDED cost change, refresh the baseline:
#   ./build/bench/bench_perf_engine \
#     --benchmark_filter='BM_PipelineAssess|BM_CompiledAssess|BM_CrossTargetCurve|BM_ServeOverload|BM_FlightRecorderOverhead|BM_ScanKernel' \
#     --benchmark_out=BENCH_pipeline.json --benchmark_out_format=json
#
# Soak mode: tools/check.sh --soak [build-dir] (default build-soak)
# builds the serve and stream suites under ThreadSanitizer and repeats
# the deterministic soaks (concurrent submitters + snapshot swaps +
# pre-expired deadlines; stream readers racing the appender) so races in
# the serving and streaming paths fail loudly.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

if [[ "${1:-}" == "--bench" ]]; then
  bench_build_dir="${2:-${repo_root}/build}"
  cmake -B "${bench_build_dir}" -S "${repo_root}"
  cmake --build "${bench_build_dir}" -j"$(nproc)" --target bench_perf_engine
  fresh_json="$(mktemp --suffix=.json)"
  trap 'rm -f "${fresh_json}"' EXIT
  "${bench_build_dir}/bench/bench_perf_engine" \
    --benchmark_filter='BM_PipelineAssess|BM_CompiledAssess|BM_CrossTargetCurve|BM_ServeOverload|BM_FlightRecorderOverhead|BM_ScanKernel' \
    --benchmark_out="${fresh_json}" --benchmark_out_format=json
  # Counter comparison against the committed baseline, plus the scan
  # kernel's within-run wall-time gate: the AVX2 mark body must beat the
  # scalar reference by >=1.25x over one curve's scans (the pair is
  # skipped on CPUs without AVX2).
  python3 "${repo_root}/tools/bench_check.py" \
    "${repo_root}/BENCH_pipeline.json" "${fresh_json}" \
    --speedup 'BM_ScanKernelAvx2:BM_ScanKernelScalar:1.25'
  exit 0
fi

if [[ "${1:-}" == "--soak" ]]; then
  soak_dir="${2:-${repo_root}/build-soak}"
  cmake -B "${soak_dir}" -S "${repo_root}" \
    -DDOPPLER_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${soak_dir}" -j"$(nproc)" --target serve_test stream_test
  # The whole serve suite runs once (queue saturation, deadline expiry,
  # hot swap), then the overload soak repeats to widen the interleaving
  # space TSan observes. The stream soak does the same for readers racing
  # the customer-window appender.
  TSAN_OPTIONS="halt_on_error=1" "${soak_dir}/tests/serve_test"
  TSAN_OPTIONS="halt_on_error=1" "${soak_dir}/tests/serve_test" \
    --gtest_filter='*Soak*' --gtest_repeat=5
  TSAN_OPTIONS="halt_on_error=1" "${soak_dir}/tests/stream_test" \
    --gtest_filter='*Soak*' --gtest_repeat=5
  exit 0
fi

build_dir="${1:-${repo_root}/build-asan}"
tsan_dir="${build_dir}-tsan"

# Generated trees must never be committed; .gitignore covers build*/ but a
# force-add would slip through silently without this.
tracked_build_files="$(git -C "${repo_root}" ls-files 'build*/' | wc -l)"
if [[ "${tracked_build_files}" -ne 0 ]]; then
  echo "error: ${tracked_build_files} generated build file(s) are tracked:" >&2
  git -C "${repo_root}" ls-files 'build*/' | head >&2
  exit 1
fi

# RelWithDebInfo's default flags define NDEBUG; dropping it keeps the
# asserts (e.g. util/json_writer.cc's nesting checks) live in this pass.
cmake -B "${build_dir}" -S "${repo_root}" \
  -DDOPPLER_SANITIZE="address;undefined" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build "${build_dir}" -j"$(nproc)"

# halt_on_error makes UBSan findings fail the run instead of just logging.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=1"
ctest --test-dir "${build_dir}" --output-on-failure -j"$(nproc)"

# The benchmark links the library from source; run.py builds it (into
# $CARGO_TARGET_DIR) and runs its own unit tests. run.py resolves paths
# from the working directory, so it runs from the repository root.
(cd "${repo_root}" &&
  CARGO_TARGET_DIR="${build_dir}/perfbench" python3 perfbench/run.py --unit-tests)

# ThreadSanitizer pass over the concurrency-sensitive suites: the
# lock-free metrics/tracer tests and the exec thread-pool / parallel fleet
# assessment tests. Only these targets are built, so run the binaries
# directly (ctest discovery would also cover targets never built in this
# tree).
cmake -B "${tsan_dir}" -S "${repo_root}" \
  -DDOPPLER_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${tsan_dir}" -j"$(nproc)" \
  --target obs_test obs_flight_test exec_test kernel_test \
  compiled_catalog_test target_test \
  pipeline_stage_test throttling_test core_recommender_test serve_test \
  stream_test
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/obs_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/obs_flight_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/exec_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/kernel_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/compiled_catalog_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/target_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/pipeline_stage_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/throttling_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/core_recommender_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/serve_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/stream_test"
