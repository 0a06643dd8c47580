// Paper Eq. 1 as the engine evaluates it: one columnar scan per candidate
// SKU (NonParametricEstimator::Probability, DESIGN.md §9), and the batch
// curve evaluator that runs those scans in candidate order. The binding
// property throughout: every count, probability and counter total is an
// exact function of (trace, capacities), bit-identical to the naive
// row-major oracle and independent of thread count.
//
// The ExceedanceIndexTest cases first pinned a memoized argsort index that
// has since been deleted in favour of the plain scan; the suite keeps its
// name and now holds the same Eq. 1 cases (ties at capacity, the inverted
// latency dimension, single-dimension traces, the no-shared-dimension
// error, moving capacity) against the scan.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "core/price_performance.h"
#include "core/throttling.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "telemetry/perf_trace.h"
#include "telemetry/trace_stats.h"
#include "util/aligned.h"
#include "util/random.h"

namespace doppler {
namespace {

using catalog::ResourceDim;
using catalog::ResourceVector;

std::uint64_t CounterValue(const char* name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

// A random multi-dimensional trace with deliberate value collisions: CPU
// is quantised to whole vCores and latency to half-milliseconds, so
// capacities drawn from the observed values sit exactly on ties.
telemetry::PerfTrace MakeTrace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  telemetry::PerfTrace trace;
  std::vector<double> cpu(n), memory(n), iops(n), latency(n);
  for (std::size_t i = 0; i < n; ++i) {
    cpu[i] = std::floor(rng.Uniform(0.0, 16.0));
    memory[i] = rng.Uniform(1.0, 64.0);
    iops[i] = rng.Uniform(50.0, 5000.0);
    latency[i] = 0.5 * std::floor(rng.Uniform(2.0, 20.0));
  }
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kCpu, cpu).ok());
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kMemoryGb, memory).ok());
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kIops, iops).ok());
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kIoLatencyMs, latency).ok());
  return trace;
}

std::vector<ResourceDim> TraceDims(const telemetry::PerfTrace& trace) {
  return trace.PresentDims();
}

// Executable specification: the row-major union count of paper Eq. 1.
std::size_t NaiveUnionCount(const telemetry::PerfTrace& trace,
                            const ResourceVector& capacities) {
  std::size_t throttled = 0;
  for (std::size_t t = 0; t < trace.num_samples(); ++t) {
    bool any = false;
    for (ResourceDim dim : catalog::kAllResourceDims) {
      if (!trace.Has(dim) || !capacities.Has(dim)) continue;
      any |= ResourceVector::Exceeds(dim, trace.Values(dim)[t],
                                     capacities.Get(dim));
    }
    throttled += any;
  }
  return throttled;
}

double NaiveProbability(const telemetry::PerfTrace& trace,
                        const ResourceVector& capacities) {
  return static_cast<double>(NaiveUnionCount(trace, capacities)) /
         static_cast<double>(trace.num_samples());
}

// Capacity values worth probing for one dimension: observed values (exact
// ties), their neighbourhoods, and both extremes.
std::vector<double> ProbeCapacities(const telemetry::PerfTrace& trace,
                                    ResourceDim dim) {
  const std::vector<double>& values = trace.Values(dim);
  return {values[0], values[values.size() / 2], values[0] + 0.25,
          values[0] - 0.25, -1.0, 1e12, 0.0};
}

// The pre-stable-sort formula of TraceStatsCache::Sorted: argsort the rows
// by (value, row index), then gather the values through the permutation.
std::vector<double> ArgsortGather(const std::vector<double>& values) {
  std::vector<std::uint32_t> perm(values.size());
  std::iota(perm.begin(), perm.end(), std::uint32_t{0});
  std::sort(perm.begin(), perm.end(), [&values](std::uint32_t a,
                                                std::uint32_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  });
  std::vector<double> gathered;
  gathered.reserve(values.size());
  for (std::uint32_t row : perm) gathered.push_back(values[row]);
  return gathered;
}

// Bitwise equality: distinguishes 0.0 from -0.0, which operator== does not.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::signbit(a[i]) != std::signbit(b[i]) || !(a[i] == b[i])) {
      return false;
    }
  }
  return true;
}

TEST(ExceedanceIndexTest, SetMatchesDirectScanIncludingTies) {
  // One dimension at a time: the scan's count of rows exceeding a capacity
  // — strictly, so rows tied AT the capacity stay out — equals a direct
  // per-row Exceeds count, on every probe including exact ties.
  const telemetry::PerfTrace trace = MakeTrace(42, 301);
  const core::NonParametricEstimator estimator;
  const double n = static_cast<double>(trace.num_samples());
  for (ResourceDim dim : TraceDims(trace)) {
    const std::vector<double>& values = trace.Values(dim);
    for (double capacity : ProbeCapacities(trace, dim)) {
      std::size_t expected = 0;
      for (double value : values) {
        expected += ResourceVector::Exceeds(dim, value, capacity);
      }
      ResourceVector capacities;
      capacities.Set(dim, capacity);
      StatusOr<double> p = estimator.Probability(trace, capacities);
      ASSERT_TRUE(p.ok());
      EXPECT_EQ(*p, static_cast<double>(expected) / n)
          << catalog::ResourceDimName(dim) << " capacity " << capacity;
    }
  }
}

TEST(ExceedanceIndexTest, UnionCountMatchesNaiveReference) {
  const telemetry::PerfTrace trace = MakeTrace(9, 500);
  const core::NonParametricEstimator estimator;
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    ResourceVector capacities;
    capacities.Set(ResourceDim::kCpu, std::floor(rng.Uniform(0.0, 18.0)));
    capacities.Set(ResourceDim::kMemoryGb, rng.Uniform(0.0, 80.0));
    capacities.Set(ResourceDim::kIops, rng.Uniform(0.0, 6000.0));
    // Inverted: the workload is throttled when demand sits BELOW this.
    capacities.Set(ResourceDim::kIoLatencyMs,
                   0.5 * std::floor(rng.Uniform(0.0, 24.0)));
    StatusOr<double> p = estimator.Probability(trace, capacities);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(*p, NaiveProbability(trace, capacities)) << "vector " << i;
  }
}

TEST(ExceedanceIndexTest, SingleDimFastPathMatchesMemoizedCount) {
  // A single shared dimension takes the count kernel instead of the mark
  // scan. Its count must equal the exceedance run read off the stats
  // cache's memoized sorted column (and the naive oracle), both on a
  // multi-dimension trace priced in one dimension and on a trace that
  // carries only one dimension.
  const telemetry::PerfTrace wide = MakeTrace(11, 200);
  telemetry::PerfTrace narrow;
  ASSERT_TRUE(narrow
                  .SetSeries(ResourceDim::kIoLatencyMs,
                             wide.Values(ResourceDim::kIoLatencyMs))
                  .ok());
  const core::NonParametricEstimator estimator;
  for (const telemetry::PerfTrace* trace :
       std::vector<const telemetry::PerfTrace*>{&wide, &narrow}) {
    const telemetry::TraceStatsCache stats(*trace);
    for (ResourceDim dim : TraceDims(*trace)) {
      const double capacity = trace->Values(dim)[42];
      const std::vector<double>& sorted = stats.Sorted(dim);
      const std::size_t memoized =
          catalog::IsInvertedDim(dim)
              ? static_cast<std::size_t>(
                    std::lower_bound(sorted.begin(), sorted.end(), capacity) -
                    sorted.begin())
              : static_cast<std::size_t>(
                    sorted.end() -
                    std::upper_bound(sorted.begin(), sorted.end(), capacity));
      ResourceVector capacities;
      capacities.Set(dim, capacity);
      // A full catalog vector too: on the narrow trace only the one dim is
      // shared, so it must take the same single-column path.
      ResourceVector priced_everywhere = capacities;
      for (ResourceDim other : catalog::kAllResourceDims) {
        if (!trace->Has(other)) priced_everywhere.Set(other, 1.0);
      }
      const double expected = static_cast<double>(memoized) /
                              static_cast<double>(trace->num_samples());
      StatusOr<double> p = estimator.Probability(*trace, capacities);
      ASSERT_TRUE(p.ok());
      EXPECT_EQ(*p, expected) << catalog::ResourceDimName(dim);
      EXPECT_EQ(*p, NaiveProbability(*trace, capacities));
      StatusOr<double> q = estimator.Probability(*trace, priced_everywhere);
      ASSERT_TRUE(q.ok());
      EXPECT_EQ(*q, NaiveProbability(*trace, priced_everywhere));
    }
  }
}

TEST(ExceedanceIndexTest, NoSharedDimensionIsAnError) {
  const telemetry::PerfTrace trace = MakeTrace(12, 64);
  const core::NonParametricEstimator estimator;
  ResourceVector disjoint;
  disjoint.Set(ResourceDim::kStorageGb, 100.0);
  disjoint.Set(ResourceDim::kWorkers, 8.0);
  StatusOr<double> p = estimator.Probability(trace, disjoint);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(estimator.Probability(telemetry::PerfTrace(), disjoint).ok());
}

TEST(ExceedanceIndexTest, MovingCapacityMatchesNaiveReference) {
  // Serverless autoscale: CPU's limit is a per-row series. The scan must
  // count a row when the moving CPU limit OR any constant limit (latency
  // inverted) is exceeded, exactly like a row-major oracle.
  const telemetry::PerfTrace trace = MakeTrace(13, 333);
  const core::NonParametricEstimator estimator;
  Rng rng(29);
  for (int round = 0; round < 10; ++round) {
    ResourceVector capacities;
    capacities.Set(ResourceDim::kCpu, 1e12);  // superseded by the series
    capacities.Set(ResourceDim::kMemoryGb, rng.Uniform(20.0, 70.0));
    capacities.Set(ResourceDim::kIoLatencyMs,
                   0.5 * std::floor(rng.Uniform(0.0, 8.0)));
    core::MovingCapacity moving;
    moving.dim = ResourceDim::kCpu;
    for (std::size_t t = 0; t < trace.num_samples(); ++t) {
      // Whole vCores, so ties against the quantised demand are common.
      moving.capacity.push_back(std::floor(rng.Uniform(4.0, 18.0)));
    }
    std::size_t expected = 0;
    for (std::size_t t = 0; t < trace.num_samples(); ++t) {
      bool any = trace.Values(ResourceDim::kCpu)[t] > moving.capacity[t];
      any |= ResourceVector::Exceeds(
          ResourceDim::kMemoryGb, trace.Values(ResourceDim::kMemoryGb)[t],
          capacities.Get(ResourceDim::kMemoryGb));
      any |= ResourceVector::Exceeds(
          ResourceDim::kIoLatencyMs,
          trace.Values(ResourceDim::kIoLatencyMs)[t],
          capacities.Get(ResourceDim::kIoLatencyMs));
      expected += any;
    }
    StatusOr<double> p = estimator.ProbabilityMoving(trace, capacities, moving);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(*p, static_cast<double>(expected) /
                      static_cast<double>(trace.num_samples()))
        << "round " << round;
  }
}

TEST(ExceedanceIndexTest, StatsCacheBackedIndexIsBitIdentical) {
  // TraceStatsCache::Sorted is a stable sort of a copy; it must reproduce
  // the argsort-gather it replaced bit for bit — on heavy ties and on
  // columns mixing 0.0 and -0.0, which compare equal but differ in sign, so
  // only a stable (row-order) tie-break gives the same bytes.
  Rng rng(31);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.UniformInt(400);
    std::vector<double> ties(n), zeros(n), mixed(n);
    for (std::size_t i = 0; i < n; ++i) {
      ties[i] = static_cast<double>(rng.UniformInt(5));
      zeros[i] = rng.Uniform() < 0.5 ? 0.0 : -0.0;
      const double pick = rng.Uniform();
      mixed[i] = pick < 0.3 ? 0.0 : pick < 0.6 ? -0.0 : rng.Uniform(-2.0, 2.0);
    }
    telemetry::PerfTrace trace;
    ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, ties).ok());
    ASSERT_TRUE(trace.SetSeries(ResourceDim::kMemoryGb, zeros).ok());
    ASSERT_TRUE(trace.SetSeries(ResourceDim::kIops, mixed).ok());
    const telemetry::TraceStatsCache cache(trace);
    for (ResourceDim dim : TraceDims(trace)) {
      EXPECT_TRUE(SameBits(cache.Sorted(dim), ArgsortGather(trace.Values(dim))))
          << catalog::ResourceDimName(dim) << " round " << round;
    }
  }
}

TEST(ExceedanceIndexTest, TrimScratchReleasesOnlyOversizedBuffers) {
  std::vector<std::uint64_t> small(128, 0);
  TrimScratch(small);
  EXPECT_GE(small.capacity(), 128u);  // within the retain cap: kept

  std::vector<std::uint64_t> big;
  big.resize(kScratchRetainBytes / sizeof(std::uint64_t) + 1);
  TrimScratch(big);
  EXPECT_EQ(big.capacity(), 0u);  // oversized: released
}

// ---------------------------------------------------------------------------
// Batch curve evaluation through ThrottlingEstimator.

class BatchEvaluationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new catalog::SkuCatalog(catalog::BuildAzureLikeCatalog());
    estimator_ = new core::NonParametricEstimator();
  }
  static void TearDownTestSuite() {
    delete estimator_;
    delete catalog_;
  }

  static std::vector<ResourceVector> CatalogCapacities() {
    std::vector<ResourceVector> capacities;
    for (const catalog::Sku& sku : catalog_->skus()) {
      capacities.push_back(sku.Capacities());
    }
    return capacities;
  }

  static catalog::SkuCatalog* catalog_;
  static core::NonParametricEstimator* estimator_;
};

catalog::SkuCatalog* BatchEvaluationTest::catalog_ = nullptr;
core::NonParametricEstimator* BatchEvaluationTest::estimator_ = nullptr;

TEST_F(BatchEvaluationTest, MatchesScalarProbabilityExactlyAtAnyJobCount) {
  const telemetry::PerfTrace trace = MakeTrace(55, 700);
  const std::vector<ResourceVector> capacities = CatalogCapacities();

  std::vector<double> expected;
  for (const ResourceVector& candidate : capacities) {
    StatusOr<double> p = estimator_->Probability(trace, candidate);
    ASSERT_TRUE(p.ok());
    expected.push_back(*p);
  }

  for (int jobs : {1, 2, 8}) {
    std::optional<exec::ThreadPool> pool;
    exec::ThreadPool* executor = nullptr;
    if (jobs > 1) {
      pool.emplace(jobs);
      executor = &*pool;
    }
    StatusOr<std::vector<double>> batch =
        estimator_->EstimateCurveProbabilities(trace, capacities, executor);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*batch)[i], expected[i])
          << "jobs " << jobs << " candidate " << i;
    }
  }
}

TEST_F(BatchEvaluationTest, ReportsFirstFailureInCandidateOrder) {
  const telemetry::PerfTrace trace = MakeTrace(56, 100);
  std::vector<ResourceVector> capacities = CatalogCapacities();
  // Two candidates share no dimension with the trace (storage only); the
  // FIRST one's error must surface, even under a thread pool.
  ResourceVector disjoint;
  disjoint.Set(ResourceDim::kStorageGb, 100.0);
  capacities.insert(capacities.begin() + 1, disjoint);
  capacities.push_back(disjoint);

  const Status scalar =
      estimator_->Probability(trace, disjoint).status();
  exec::ThreadPool pool(8);
  StatusOr<std::vector<double>> batch =
      estimator_->EstimateCurveProbabilities(trace, capacities, &pool);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), scalar.code());
  EXPECT_EQ(batch.status().message(), scalar.message());
}

TEST_F(BatchEvaluationTest, EmptyInputsBehaveLikeScalarPath) {
  const telemetry::PerfTrace trace = MakeTrace(57, 50);
  StatusOr<std::vector<double>> empty_candidates =
      estimator_->EstimateCurveProbabilities(trace,
                                             std::vector<ResourceVector>{});
  ASSERT_TRUE(empty_candidates.ok());
  EXPECT_TRUE(empty_candidates->empty());

  const telemetry::PerfTrace no_samples;
  StatusOr<std::vector<double>> empty_trace =
      estimator_->EstimateCurveProbabilities(no_samples, CatalogCapacities());
  EXPECT_FALSE(empty_trace.ok());
}

TEST_F(BatchEvaluationTest, CompiledViewOverloadMatchesVectorOverload) {
  const telemetry::PerfTrace trace = MakeTrace(58, 300);
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog compiled = catalog::CompiledCatalog::Compile(
      *catalog_, &pricing);
  const catalog::CompiledView view =
      compiled.ForDeployment(catalog::Deployment::kSqlDb).view();
  ASSERT_FALSE(view.empty());

  std::vector<ResourceVector> capacities;
  for (const catalog::CompiledEntry& entry : view) {
    capacities.push_back(entry.capacities);
  }
  StatusOr<std::vector<double>> from_view =
      estimator_->EstimateCurveProbabilities(trace, view);
  StatusOr<std::vector<double>> from_vector =
      estimator_->EstimateCurveProbabilities(trace, capacities);
  ASSERT_TRUE(from_view.ok());
  ASSERT_TRUE(from_vector.ok());
  EXPECT_EQ(*from_view, *from_vector);
}

TEST_F(BatchEvaluationTest, CounterTotalsAreScheduleIndependent) {
  const telemetry::PerfTrace trace = MakeTrace(60, 400);
  const std::vector<ResourceVector> capacities = CatalogCapacities();
  const char* const counters[] = {"ppm.throttling_evaluations",
                                  "ppm.samples_scanned"};
  std::vector<std::vector<std::uint64_t>> deltas;
  for (int jobs : {1, 2, 8}) {
    std::vector<std::uint64_t> before;
    for (const char* name : counters) before.push_back(CounterValue(name));
    std::optional<exec::ThreadPool> pool;
    exec::ThreadPool* executor = nullptr;
    if (jobs > 1) {
      pool.emplace(jobs);
      executor = &*pool;
    }
    StatusOr<std::vector<double>> batch =
        estimator_->EstimateCurveProbabilities(trace, capacities, executor);
    ASSERT_TRUE(batch.ok());
    std::vector<std::uint64_t> delta;
    for (std::size_t i = 0; i < std::size(counters); ++i) {
      delta.push_back(CounterValue(counters[i]) - before[i]);
    }
    deltas.push_back(std::move(delta));
  }
  for (std::size_t i = 0; i < std::size(counters); ++i) {
    EXPECT_EQ(deltas[0][i], deltas[1][i]) << counters[i] << " jobs 1 vs 2";
    EXPECT_EQ(deltas[0][i], deltas[2][i]) << counters[i] << " jobs 1 vs 8";
  }
}

// TSan target: one trace, its stats cache and a bound KDE estimator (the
// lazily built per-dimension state the engine shares) read by many
// workers at once; results must match the serial evaluation.
TEST_F(BatchEvaluationTest, SharedIndexSurvivesConcurrentEvaluation) {
  const telemetry::PerfTrace trace = MakeTrace(61, 600);
  const telemetry::TraceStatsCache cache(trace);
  const std::vector<ResourceVector> capacities = CatalogCapacities();

  std::vector<double> serial(capacities.size());
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    serial[i] = *estimator_->Probability(trace, capacities[i]);
  }

  exec::ThreadPool pool(8);
  for (int round = 0; round < 4; ++round) {
    std::vector<double> parallel(capacities.size());
    std::vector<double> quantiles(capacities.size());
    pool.ParallelFor(capacities.size(),
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         parallel[i] =
                             *estimator_->Probability(trace, capacities[i]);
                         quantiles[i] = cache.Quantile(ResourceDim::kCpu, 0.95);
                       }
                     });
    EXPECT_EQ(parallel, serial);
    for (double q : quantiles) {
      EXPECT_EQ(q, cache.Quantile(ResourceDim::kCpu, 0.95));
    }
  }

  // Bound KDE estimator: lazily fitted per-dimension models shared across
  // workers.
  const core::KdeEstimator kde(&cache);
  std::vector<double> kde_parallel(capacities.size());
  pool.ParallelFor(capacities.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      StatusOr<double> p = kde.Probability(trace, capacities[i]);
      kde_parallel[i] = p.ok() ? *p : -1.0;
    }
  });
  for (double p : kde_parallel) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(BatchEvaluationTest, BoundKdeMatchesUnboundWithinSummationTolerance) {
  const telemetry::PerfTrace trace = MakeTrace(62, 350);
  const telemetry::TraceStatsCache cache(trace);
  const core::KdeEstimator unbound;
  const core::KdeEstimator bound(&cache);
  for (const ResourceVector& candidate : CatalogCapacities()) {
    StatusOr<double> a = unbound.Probability(trace, candidate);
    StatusOr<double> b = bound.Probability(trace, candidate);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Same model; the bound path sums kernels in sorted order, so only
    // floating-point summation order may differ.
    EXPECT_NEAR(*a, *b, 1e-9);
  }

  // On any OTHER trace the bound estimator must fall back to the per-call
  // fit and agree exactly.
  const telemetry::PerfTrace other = MakeTrace(63, 350);
  for (const ResourceVector& candidate : CatalogCapacities()) {
    StatusOr<double> a = unbound.Probability(other, candidate);
    StatusOr<double> b = bound.Probability(other, candidate);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST(ScanCounterTest, SamplesScannedReflectsRowsActuallyVisited) {
  // A capacity of 0 on the first scanned dimension throttles every row
  // immediately: the early exit means only ONE column is visited.
  const telemetry::PerfTrace trace = MakeTrace(64, 128);
  const core::NonParametricEstimator estimator;
  ResourceVector all_throttled;
  all_throttled.Set(ResourceDim::kCpu, -1.0);  // every cpu demand exceeds
  all_throttled.Set(ResourceDim::kMemoryGb, -1.0);
  all_throttled.Set(ResourceDim::kIops, -1.0);

  const std::uint64_t before = CounterValue("ppm.samples_scanned");
  ASSERT_TRUE(estimator.Probability(trace, all_throttled).ok());
  EXPECT_EQ(CounterValue("ppm.samples_scanned") - before,
            trace.num_samples());

  // No early exit: every one of the three columns is swept.
  ResourceVector none_throttled;
  none_throttled.Set(ResourceDim::kCpu, 1e12);
  none_throttled.Set(ResourceDim::kMemoryGb, 1e12);
  none_throttled.Set(ResourceDim::kIops, 1e12);
  const std::uint64_t before_full = CounterValue("ppm.samples_scanned");
  ASSERT_TRUE(estimator.Probability(trace, none_throttled).ok());
  EXPECT_EQ(CounterValue("ppm.samples_scanned") - before_full,
            3 * trace.num_samples());
}

TEST(ScanCounterTest, CurveChargesEveryCandidateScan) {
  // A curve is one scan per candidate, so the curve's samples_scanned is
  // the sum of what each candidate's own scan charges — nothing hidden in
  // a set-up step, nothing amortised away.
  const telemetry::PerfTrace trace = MakeTrace(65, 300);
  const core::NonParametricEstimator estimator;
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog compiled = catalog::CompiledCatalog::Compile(
      catalog::BuildAzureLikeCatalog(), &pricing);
  const catalog::CompiledView view =
      compiled.ForDeployment(catalog::Deployment::kSqlDb).view();

  std::uint64_t per_candidate = 0;
  for (const catalog::CompiledEntry& entry : view) {
    const std::uint64_t before = CounterValue("ppm.samples_scanned");
    ASSERT_TRUE(estimator.Probability(trace, entry.capacities).ok());
    per_candidate += CounterValue("ppm.samples_scanned") - before;
  }
  const std::uint64_t before = CounterValue("ppm.samples_scanned");
  ASSERT_TRUE(core::PricePerformanceCurve::Build(trace, view,
                                                 compiled.pricing(), estimator)
                  .ok());
  EXPECT_EQ(CounterValue("ppm.samples_scanned") - before, per_candidate);
  EXPECT_GE(per_candidate, view.size() * trace.num_samples());
}

TEST(ScanCounterTest, RowsSortedChargedOncePerDimensionBuild) {
  const telemetry::PerfTrace trace = MakeTrace(66, 250);
  const telemetry::TraceStatsCache cache(trace);
  const std::uint64_t before = CounterValue("stats.rows_sorted");
  for (int pass = 0; pass < 3; ++pass) {
    for (ResourceDim dim : TraceDims(trace)) cache.Sorted(dim);
  }
  // Memoized: the repeat passes sort nothing.
  EXPECT_EQ(CounterValue("stats.rows_sorted") - before,
            TraceDims(trace).size() * trace.num_samples());
  // An absent dimension has nothing to sort.
  cache.Sorted(ResourceDim::kWorkers);
  EXPECT_EQ(CounterValue("stats.rows_sorted") - before,
            TraceDims(trace).size() * trace.num_samples());
}

// Regression guard for the eviction/mutation hazard (DESIGN.md §13): the
// streaming monitor mutates a window trace between assessments while the
// stats cache built over it stays alive. Before the generation counter,
// the cache kept serving sorted state from the PREVIOUS window contents.
TEST(GenerationInvalidationTest, StatsCacheRebuildsAfterTraceMutation) {
  telemetry::PerfTrace trace = MakeTrace(7, 64);
  const telemetry::TraceStatsCache stats(trace);
  const double stale_max = stats.Max(ResourceDim::kCpu);
  const std::uint64_t built_at = trace.generation();

  // Replace the CPU series with a shifted copy; every order statistic moves.
  std::vector<double> shifted = trace.Values(ResourceDim::kCpu);
  for (double& v : shifted) v += 100.0;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, std::move(shifted)).ok());
  ASSERT_GT(trace.generation(), built_at);

  EXPECT_EQ(stats.Max(ResourceDim::kCpu), stale_max + 100.0);
  EXPECT_EQ(stats.Min(ResourceDim::kCpu),
            *std::min_element(trace.Values(ResourceDim::kCpu).begin(),
                              trace.Values(ResourceDim::kCpu).end()));
  // The sorted view handed out before the mutation reads fresh contents.
  const std::vector<double>& sorted = stats.Sorted(ResourceDim::kCpu);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_GE(sorted.front(), 100.0);
}

}  // namespace
}  // namespace doppler
