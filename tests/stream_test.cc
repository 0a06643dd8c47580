// Differential property tests for the streaming telemetry layer
// (DESIGN.md §13): at every step of a seeded random append/evict schedule
// the incrementally patched caches (StreamStats sorted order, StreamIndex
// exceedance bitsets) must be bit-identical / count-identical to a
// from-scratch rebuild (or row-major count) over a shadow copy of the
// window, and sampled AssessStages runs over the materialised window must
// render byte-identical JSON to assessments over the shadow. Plus: KLL sketch deterministic
// error bounds and merge associativity, the monitor's drift-gated
// stage-mask policy, a seeded DriftPlan soak, a concurrent reader/appender
// soak (TSan target), and the `doppler monitor` CLI end to end.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/resource.h"
#include "dma/cli.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "obs/metrics.h"
#include "serve/spool.h"
#include "sim/fault_injector.h"
#include "stream/kll_sketch.h"
#include "stream/monitor.h"
#include "stream/stream_index.h"
#include "stream/stream_stats.h"
#include "stream/streaming_trace.h"
#include "telemetry/trace_stats.h"
#include "util/random.h"
#include "workload/generator.h"

namespace doppler::stream {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

double CounterValue(const std::string& name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

// ---------------------------------------------------------------------------
// Shared pipeline fixture (one offline fit per suite, like StageFixture).

class StreamFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
    const catalog::DefaultPricing pricing;
    const core::NonParametricEstimator estimator;
    StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
        catalog, pricing, estimator, Deployment::kSqlDb, 60, 7);
    ASSERT_TRUE(model.ok());
    dma::StaticInputs inputs{std::move(catalog), *std::move(model)};
    StatusOr<dma::SkuRecommendationPipeline> pipeline =
        dma::SkuRecommendationPipeline::Create(std::move(inputs));
    ASSERT_TRUE(pipeline.ok());
    pipeline_ = new dma::SkuRecommendationPipeline(*std::move(pipeline));
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static std::string StableJson(const dma::AssessmentOutcome& outcome) {
    dma::AssessmentJsonOptions options;
    options.include_stage_seconds = false;
    return dma::RenderAssessmentJson(outcome, options);
  }

  static dma::SkuRecommendationPipeline* pipeline_;
};

dma::SkuRecommendationPipeline* StreamFixture::pipeline_ = nullptr;

// A constant-valued batch over the five standard dimensions; `cpu_scale`
// perturbs only the CPU column so drift tests trip exactly one dimension.
telemetry::PerfTrace ConstantBatch(std::size_t rows, double cpu_scale = 1.0) {
  telemetry::PerfTrace batch;
  EXPECT_TRUE(
      batch.SetSeries(ResourceDim::kCpu,
                      std::vector<double>(rows, 0.5 * cpu_scale)).ok());
  EXPECT_TRUE(batch.SetSeries(ResourceDim::kMemoryGb,
                              std::vector<double>(rows, 4.0)).ok());
  EXPECT_TRUE(batch.SetSeries(ResourceDim::kIops,
                              std::vector<double>(rows, 800.0)).ok());
  EXPECT_TRUE(batch.SetSeries(ResourceDim::kIoLatencyMs,
                              std::vector<double>(rows, 7.0)).ok());
  EXPECT_TRUE(batch.SetSeries(ResourceDim::kStorageGb,
                              std::vector<double>(rows, 40.0)).ok());
  return batch;
}

// ---------------------------------------------------------------------------
// Differential harness: StreamingTrace + patched caches vs a shadow deque
// rebuilt from scratch at every step.

// Rows throttled by ANY dimension shared by the trace and `capacities`:
// the row-major numerator of paper Eq. 1.
std::size_t RowMajorUnionCount(const telemetry::PerfTrace& trace,
                               const catalog::ResourceVector& capacities) {
  std::size_t throttled = 0;
  for (std::size_t t = 0; t < trace.num_samples(); ++t) {
    bool any = false;
    for (ResourceDim dim : catalog::kAllResourceDims) {
      if (!trace.Has(dim) || !capacities.Has(dim)) continue;
      any |= catalog::ResourceVector::Exceeds(dim, trace.Values(dim)[t],
                                              capacities.Get(dim));
    }
    throttled += any;
  }
  return throttled;
}

struct Harness {
  std::vector<ResourceDim> dims;
  std::map<ResourceDim, std::vector<double>> capacities;
  StreamingTrace trace;
  StreamStats stats;
  StreamIndex index;
  std::deque<std::vector<double>> shadow;

  Harness(std::vector<ResourceDim> d,
          std::map<ResourceDim, std::vector<double>> caps,
          std::size_t capacity)
      : dims(std::move(d)),
        capacities(std::move(caps)),
        trace(dims, capacity),
        stats(&trace),
        index(&trace) {
    // Memoize every capacity up front (over the empty window) so the whole
    // schedule exercises the incremental bit-patch path, not set rebuilds.
    for (const auto& [dim, caps_for_dim] : capacities) {
      for (double c : caps_for_dim) index.SetFor(dim, c);
    }
  }

  // Memoizes `capacity` over the live window, so its set comes from the
  // first-sight scan instead of from per-row patches. A capacity that is
  // already memoized stays a memo hit.
  void Memoize(ResourceDim dim, double capacity) {
    std::vector<double>& caps = capacities[dim];
    if (std::find(caps.begin(), caps.end(), capacity) == caps.end()) {
      caps.push_back(capacity);
    }
    index.SetFor(dim, capacity);
  }

  void Append(const std::vector<double>& row) {
    if (trace.full()) Evict();
    shadow.push_back(row);
    StatusOr<std::uint64_t> seq = trace.Append(row);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    stats.OnAppend(*seq);
    index.OnAppend(*seq);
  }

  void Evict() {
    ASSERT_FALSE(shadow.empty());
    const std::uint64_t oldest = trace.first_seq();
    stats.OnEvict(oldest);
    index.OnEvict(oldest);
    ASSERT_TRUE(trace.PopFront().ok());
    shadow.pop_front();
  }

  telemetry::PerfTrace ShadowTrace() const {
    telemetry::PerfTrace out;
    for (std::size_t k = 0; k < dims.size(); ++k) {
      std::vector<double> column(shadow.size());
      for (std::size_t i = 0; i < shadow.size(); ++i) {
        column[i] = shadow[i][k];
      }
      EXPECT_TRUE(out.SetSeries(dims[k], std::move(column)).ok());
    }
    return out;
  }

  // The full step invariant: materialisation, sorted order (bytewise),
  // quantiles, moments, extremes, per-capacity exceedance counts, and
  // multi-dimension union counts all equal a from-scratch rebuild or a
  // row-major count over the shadow window.
  void Verify() const {
    ASSERT_EQ(trace.size(), shadow.size());
    const telemetry::PerfTrace shadow_trace = ShadowTrace();
    const telemetry::PerfTrace materialized = trace.Materialize();
    for (ResourceDim dim : dims) {
      ASSERT_EQ(materialized.Values(dim), shadow_trace.Values(dim));
    }

    telemetry::TraceStatsCache rebuilt(shadow_trace);
    for (ResourceDim dim : dims) {
      // Bytes, not ==: == treats 0.0 and -0.0 as equal, and which of a
      // tied pair sorts first is part of the stable-sort contract.
      const std::vector<double>& sorted = stats.Sorted(dim);
      const std::vector<double>& expected = rebuilt.Sorted(dim);
      ASSERT_EQ(sorted.size(), expected.size());
      if (!sorted.empty()) {
        ASSERT_EQ(std::memcmp(sorted.data(), expected.data(),
                              sorted.size() * sizeof(double)),
                  0)
            << catalog::ResourceDimName(dim) << " sorted order differs";
      }
      for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        ASSERT_EQ(stats.Quantile(dim, q), rebuilt.Quantile(dim, q))
            << "q=" << q;
      }
      ASSERT_EQ(stats.Mean(dim), rebuilt.Mean(dim));
      ASSERT_EQ(stats.StdDev(dim), rebuilt.StdDev(dim));
      ASSERT_EQ(stats.Min(dim), rebuilt.Min(dim));
      ASSERT_EQ(stats.Max(dim), rebuilt.Max(dim));
    }

    for (const auto& [dim, caps_for_dim] : capacities) {
      for (double c : caps_for_dim) {
        catalog::ResourceVector single;
        single.Set(dim, c);
        ASSERT_EQ(index.SetFor(dim, c).count,
                  RowMajorUnionCount(shadow_trace, single))
            << catalog::ResourceDimName(dim) << " capacity " << c;
      }
    }
    for (std::size_t pick = 0; pick < 3; ++pick) {
      catalog::ResourceVector union_caps;
      std::size_t which = pick;
      for (const auto& [dim, caps_for_dim] : capacities) {
        union_caps.Set(dim, caps_for_dim[which % caps_for_dim.size()]);
        ++which;
      }
      // A dimension absent from the window must be skipped by both sides.
      union_caps.Set(ResourceDim::kStorageGb, 10.0);
      ASSERT_EQ(index.CountExceedingUnion(union_caps),
                RowMajorUnionCount(shadow_trace, union_caps));
    }
  }
};

// Quantized values make ties (including exact ties AT a capacity) common,
// so the tie order and the strict exceedance comparisons are exercised on
// every step, not just on pathological inputs. Half of the zero CPU values
// are -0.0: equal to 0.0 under <, but a different byte pattern, so the
// bytewise sorted-order check sees whether ties keep row order.
std::vector<double> QuantizedRow(Rng& rng) {
  const double q = std::floor(rng.Uniform() * 8.0) / 4.0;  // {0, .25, .., 1.75}
  const double q2 = std::floor(rng.Uniform() * 8.0) / 4.0;
  const double q3 = std::floor(rng.Uniform() * 8.0) / 4.0;
  const double q4 = std::floor(rng.Uniform() * 8.0) / 4.0;
  double cpu = 0.4 * q;
  if (cpu == 0.0 && rng.Uniform() < 0.5) cpu = -0.0;
  return {cpu, 2.0 + q2, 100.0 + 400.0 * q3, 1.0 + q4};
}

std::map<ResourceDim, std::vector<double>> DefaultCapacities() {
  return {
      {ResourceDim::kCpu, {0.0, 0.2, 0.55, 0.7}},
      {ResourceDim::kMemoryGb, {2.0, 2.6, 3.0, 3.75}},
      {ResourceDim::kIops, {100.0, 350.0, 500.0, 800.0}},
      // Inverted: rows exceed when latency is BELOW the floor.
      {ResourceDim::kIoLatencyMs, {1.0, 1.5, 2.2, 2.75}},
  };
}

std::vector<ResourceDim> DefaultDims() {
  return {ResourceDim::kCpu, ResourceDim::kMemoryGb, ResourceDim::kIops,
          ResourceDim::kIoLatencyMs};
}

TEST_F(StreamFixture, TenThousandStepScheduleMatchesRebuild) {
  Harness h(DefaultDims(), DefaultCapacities(), 96);
  Rng rng(20260808);
  for (int step = 0; step < 10000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step != 0 && step % 1500 == 0) {
      // Periodic full drain: the all-evicted edge mid-schedule, then the
      // window refills from empty with already-large sequence numbers.
      while (!h.shadow.empty()) {
        ASSERT_NO_FATAL_FAILURE(h.Evict());
      }
    } else if (!h.shadow.empty() && rng.Uniform() < 0.3) {
      ASSERT_NO_FATAL_FAILURE(h.Evict());
    } else {
      ASSERT_NO_FATAL_FAILURE(h.Append(QuantizedRow(rng)));
    }
    if (step % 997 == 500) {
      // A new CPU capacity over a populated window: on the quantized grid
      // (ties at the capacity) for the first memoizations, just off it
      // after.
      const int m = 1 + step / 997;
      h.Memoize(ResourceDim::kCpu, 0.4 * ((m % 8) / 4.0) + 0.001 * (m / 8));
    }
    ASSERT_NO_FATAL_FAILURE(h.Verify());

    // Sampled end-to-end equivalence: assessing the materialised window
    // equals assessing the shadow, byte for byte.
    if (step % 613 == 0 && h.shadow.size() >= 24) {
      const dma::StageMask mask = dma::kStagePreprocess | dma::kStageQuality |
                                  dma::kStageLayout | dma::kStageRecommend;
      dma::AssessmentRequest from_window;
      from_window.customer_id = "differential";
      from_window.target = Deployment::kSqlDb;
      from_window.database_traces = {h.trace.Materialize()};
      dma::AssessmentRequest from_shadow = from_window;
      from_shadow.database_traces = {h.ShadowTrace()};
      StatusOr<dma::AssessmentOutcome> window_outcome =
          pipeline_->AssessStages(from_window, mask);
      StatusOr<dma::AssessmentOutcome> shadow_outcome =
          pipeline_->AssessStages(from_shadow, mask);
      ASSERT_TRUE(window_outcome.ok()) << window_outcome.status().ToString();
      ASSERT_TRUE(shadow_outcome.ok()) << shadow_outcome.status().ToString();
      ASSERT_EQ(StableJson(*window_outcome), StableJson(*shadow_outcome));
    }
  }
  // The schedule really wrapped the ring many times over.
  EXPECT_GT(h.trace.next_seq(), 2 * h.trace.capacity());
}

TEST(StreamDifferentialTest, TinyWindowEdgesMatchRebuild) {
  // Capacity 4: every append past the fourth wraps a slot; drains hit the
  // single-row and empty states repeatedly.
  Harness h(DefaultDims(), DefaultCapacities(), 4);
  Rng rng(7);
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step % 37 == 0) {
      while (!h.shadow.empty()) ASSERT_NO_FATAL_FAILURE(h.Evict());
    } else if (!h.shadow.empty() && rng.Uniform() < 0.4) {
      ASSERT_NO_FATAL_FAILURE(h.Evict());
    } else {
      ASSERT_NO_FATAL_FAILURE(h.Append(QuantizedRow(rng)));
    }
    ASSERT_NO_FATAL_FAILURE(h.Verify());
  }
}

TEST(StreamingTraceTest, AppendEvictProtocolAndErrors) {
  StreamingTrace trace({ResourceDim::kCpu}, 1);
  EXPECT_TRUE(trace.empty());
  EXPECT_FALSE(trace.PopFront().ok());
  EXPECT_FALSE(trace.Append({1.0, 2.0}).ok());  // row/dims mismatch

  StatusOr<std::uint64_t> first = trace.Append({0.5});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0u);
  EXPECT_TRUE(trace.full());
  // Full window refuses appends: the caller must evict first so borrowers
  // can observe the departing row.
  EXPECT_FALSE(trace.Append({0.7}).ok());
  ASSERT_TRUE(trace.PopFront().ok());
  StatusOr<std::uint64_t> second = trace.Append({0.7});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 1u);
  EXPECT_EQ(trace.first_seq(), 1u);
  EXPECT_EQ(trace.ValueAt(ResourceDim::kCpu, 1), 0.7);
  EXPECT_EQ(trace.generation(), 3u);  // 2 appends + 1 evict

  const telemetry::PerfTrace single = trace.Materialize();
  EXPECT_EQ(single.num_samples(), 1u);
  EXPECT_EQ(single.Values(ResourceDim::kCpu)[0], 0.7);
}

TEST(StreamStatsTest, RowsPatchedPerTickStaysBounded) {
  const std::vector<ResourceDim> dims = {ResourceDim::kCpu,
                                         ResourceDim::kIops};
  constexpr std::size_t kCapacity = 96;
  StreamingTrace trace(dims, kCapacity);
  StreamStats stats(&trace);
  StreamIndex index(&trace);
  Rng rng(11);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    StatusOr<std::uint64_t> seq = trace.Append({rng.Uniform(), rng.Uniform()});
    ASSERT_TRUE(seq.ok());
    stats.OnAppend(*seq);
    index.OnAppend(*seq);
  }
  const double misses_before = CounterValue("stream.index_misses");
  const double hits_before = CounterValue("stream.index_hits");
  for (double c : {0.25, 0.5, 0.75, 0.9}) index.SetFor(ResourceDim::kCpu, c);
  EXPECT_EQ(CounterValue("stream.index_misses") - misses_before, 4.0);
  index.SetFor(ResourceDim::kCpu, 0.5);  // memo hit, no rebuild
  EXPECT_EQ(CounterValue("stream.index_hits") - hits_before, 1.0);
  EXPECT_EQ(index.MemoSize(ResourceDim::kCpu), 4u);

  // Steady state: one evict + one append per tick. Each charges the two
  // dimension slots in stats plus the four memoized CPU sets in the index
  // — far below the window_size * dims a rebuild-per-tick would charge.
  const double patched_before = CounterValue("stream.rows_patched");
  constexpr int kTicks = 100;
  for (int t = 0; t < kTicks; ++t) {
    const std::uint64_t oldest = trace.first_seq();
    stats.OnEvict(oldest);
    index.OnEvict(oldest);
    ASSERT_TRUE(trace.PopFront().ok());
    StatusOr<std::uint64_t> seq = trace.Append({rng.Uniform(), rng.Uniform()});
    ASSERT_TRUE(seq.ok());
    stats.OnAppend(*seq);
    index.OnAppend(*seq);
  }
  const double per_tick =
      (CounterValue("stream.rows_patched") - patched_before) / kTicks;
  EXPECT_LE(per_tick, 16.0);
  EXPECT_LT(per_tick, static_cast<double>(kCapacity * dims.size()) / 4.0);
  EXPECT_EQ(index.MemoSize(ResourceDim::kCpu), 4u);  // no memo churn
}

// ---------------------------------------------------------------------------
// KLL sketch: deterministic tracked error bound, adversarial streams,
// merge associativity-within-bound, logarithmic memory.

double ExactRank(const std::vector<double>& sorted, double value) {
  return static_cast<double>(
      std::lower_bound(sorted.begin(), sorted.end(), value) - sorted.begin());
}

void CheckSketchAgainstStream(const KllSketch& sketch,
                              std::vector<double> stream) {
  std::sort(stream.begin(), stream.end());
  const double bound = static_cast<double>(sketch.rank_error_bound());
  ASSERT_EQ(sketch.count(), stream.size());
  // Probe at every 97th stream item plus the extremes.
  for (std::size_t i = 0; i < stream.size(); i += 97) {
    const double v = stream[i];
    EXPECT_LE(std::fabs(sketch.EstimateRank(v) - ExactRank(stream, v)), bound)
        << "value " << v;
  }
  EXPECT_LE(std::fabs(sketch.EstimateRank(stream.front() - 1.0) - 0.0), bound);
  EXPECT_LE(std::fabs(sketch.EstimateRank(stream.back() + 1.0) -
                      static_cast<double>(stream.size())),
            bound);
  // Quantiles land within the bound plus one item weight of the target.
  // A tied value occupies a rank INTERVAL [strictly-less, at-or-below), so
  // the distance is measured to the interval, not to a point rank.
  const double max_weight =
      std::ldexp(1.0, static_cast<int>(sketch.num_levels()) - 1);
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double picked = sketch.Quantile(q);
    const double target = q * static_cast<double>(stream.size());
    const double lo = ExactRank(stream, picked);
    const double hi = static_cast<double>(
        std::upper_bound(stream.begin(), stream.end(), picked) -
        stream.begin());
    const double distance =
        target < lo ? lo - target : (target > hi ? target - hi : 0.0);
    EXPECT_LE(distance, bound + max_weight) << "q=" << q;
  }
}

TEST(KllSketchTest, AdversarialStreamsStayWithinTrackedBound) {
  constexpr std::size_t kN = 20000;
  constexpr std::size_t kK = 200;

  std::vector<std::pair<const char*, std::vector<double>>> streams;
  std::vector<double> ascending(kN), descending(kN), ties(kN), pareto(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ascending[i] = static_cast<double>(i);
    descending[i] = static_cast<double>(kN - i);
    ties[i] = static_cast<double>(i % 5);
  }
  Rng rng(13);
  for (std::size_t i = 0; i < kN; ++i) pareto[i] = rng.Pareto(1.0, 1.2);
  streams.emplace_back("ascending", ascending);
  streams.emplace_back("descending", descending);
  streams.emplace_back("heavy-ties", ties);
  streams.emplace_back("pareto", pareto);

  for (const auto& [name, stream] : streams) {
    SCOPED_TRACE(name);
    KllSketch sketch(kK, 99);
    for (double v : stream) sketch.Add(v);
    // The tracked bound itself stays small: well under 5% of the stream.
    EXPECT_LE(sketch.rank_error_bound(), kN / 20)
        << "bound " << sketch.rank_error_bound();
    ASSERT_NO_FATAL_FAILURE(CheckSketchAgainstStream(sketch, stream));
  }
}

TEST(KllSketchTest, SmallStreamsAreExact) {
  // Below the per-level budget no compaction ever fires: zero error bound
  // and exact ranks.
  KllSketch sketch(200, 5);
  for (int i = 0; i < 150; ++i) sketch.Add(static_cast<double>(i));
  EXPECT_EQ(sketch.rank_error_bound(), 0u);
  EXPECT_EQ(sketch.retained(), 150u);
  EXPECT_EQ(sketch.EstimateRank(75.0), 75.0);
}

TEST(KllSketchTest, MergeIsAssociativeWithinSummedBounds) {
  constexpr std::size_t kSegment = 7000;
  std::vector<double> s1(kSegment), s2(kSegment), s3(kSegment);
  Rng rng(31);
  for (std::size_t i = 0; i < kSegment; ++i) {
    s1[i] = static_cast<double>(i);
    s2[i] = static_cast<double>(2 * kSegment - i);
    s3[i] = rng.Pareto(0.5, 1.5);
  }
  KllSketch a(128, 1), b(128, 2), c(128, 3);
  for (double v : s1) a.Add(v);
  for (double v : s2) b.Add(v);
  for (double v : s3) c.Add(v);

  KllSketch left = a;
  left.Merge(b);
  left.Merge(c);
  KllSketch right = c;
  right.Merge(b);
  right.Merge(a);
  EXPECT_EQ(left.count(), 3 * kSegment);
  EXPECT_EQ(right.count(), 3 * kSegment);

  std::vector<double> all;
  all.reserve(3 * kSegment);
  all.insert(all.end(), s1.begin(), s1.end());
  all.insert(all.end(), s2.begin(), s2.end());
  all.insert(all.end(), s3.begin(), s3.end());
  // Merge order changes which items survive compaction but never the
  // guarantee: both orders answer within their own tracked bounds.
  ASSERT_NO_FATAL_FAILURE(CheckSketchAgainstStream(left, all));
  ASSERT_NO_FATAL_FAILURE(CheckSketchAgainstStream(right, all));
}

TEST(KllSketchTest, RetainedStaysLogarithmic) {
  constexpr std::size_t kN = 200000;
  constexpr std::size_t kK = 200;
  KllSketch sketch(kK, 17);
  for (std::size_t i = 0; i < kN; ++i) {
    sketch.Add(static_cast<double>(i % 977));
  }
  // O(k * log(n/k)) retention: a generous constant still sits orders of
  // magnitude below the stream length.
  EXPECT_LE(sketch.retained(), kK * (sketch.num_levels() + 1));
  EXPECT_LE(sketch.retained(), kN / 40);
}

// ---------------------------------------------------------------------------
// CustomerWindow modes.

TEST(CustomerWindowTest, SketchModeClampsRingAndAnswersLifetimeQuantiles) {
  MonitorOptions options;
  options.window_rows = 200;        // asks for more than the budget...
  options.sketch_row_budget = 100;  // ...so the window runs in sketch mode
  CustomerWindow window("sketchy", {ResourceDim::kCpu}, options);
  EXPECT_FALSE(window.exact_mode());

  telemetry::PerfTrace batch;
  std::vector<double> values(150);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  ASSERT_TRUE(batch.SetSeries(ResourceDim::kCpu, std::move(values)).ok());
  StatusOr<CustomerWindow::BatchResult> result = window.Append(batch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->appended, 150u);
  EXPECT_EQ(result->evicted, 50u);  // ring clamped to the 100-row budget
  EXPECT_EQ(window.resident_rows(), 100u);
  EXPECT_EQ(window.total_rows(), 150u);

  // The resident ring holds only rows 50..149, but quantiles summarise the
  // LIFETIME stream: the sketch still knows about the evicted prefix.
  const telemetry::PerfTrace resident = window.MaterializeTrace();
  EXPECT_EQ(resident.Values(ResourceDim::kCpu).front(), 50.0);
  EXPECT_LE(window.Quantile(ResourceDim::kCpu, 0.0), 1.0);
  EXPECT_EQ(window.sketch(ResourceDim::kCpu).count(), 150u);
}

TEST(CustomerWindowTest, ExactModeQuantileMatchesRebuild) {
  MonitorOptions options;
  options.window_rows = 64;
  CustomerWindow window("exact", {ResourceDim::kCpu, ResourceDim::kIops},
                        options);
  ASSERT_TRUE(window.exact_mode());
  Rng rng(23);
  telemetry::PerfTrace batch;
  std::vector<double> cpu(100), iops(100);
  for (std::size_t i = 0; i < 100; ++i) {
    cpu[i] = std::floor(rng.Uniform() * 8.0) / 4.0;
    iops[i] = 100.0 * std::floor(rng.Uniform() * 8.0);
  }
  ASSERT_TRUE(batch.SetSeries(ResourceDim::kCpu, cpu).ok());
  ASSERT_TRUE(batch.SetSeries(ResourceDim::kIops, iops).ok());
  ASSERT_TRUE(window.Append(batch).ok());
  EXPECT_EQ(window.resident_rows(), 64u);

  const telemetry::PerfTrace resident = window.MaterializeTrace();
  telemetry::TraceStatsCache rebuilt(resident);
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(window.Quantile(ResourceDim::kCpu, q),
              rebuilt.Quantile(ResourceDim::kCpu, q));
    EXPECT_EQ(window.Quantile(ResourceDim::kIops, q),
              rebuilt.Quantile(ResourceDim::kIops, q));
  }
}

// ---------------------------------------------------------------------------
// Monitor policy: initial assessment, drift-gated re-assessment, masks.

TEST_F(StreamFixture, InitialAssessmentThenDriftReassessOnlyMaskedStages) {
  MonitorOptions options;
  options.window_rows = 96;
  options.min_assess_rows = 48;
  options.drift_tolerance = 0.25;
  StreamMonitor monitor(pipeline_, options);

  const double baseline_runs_before =
      CounterValue("stream.stage_runs.pipeline.baseline");
  const double confidence_runs_before =
      CounterValue("stream.stage_runs.pipeline.confidence");
  const double recommend_runs_before =
      CounterValue("stream.stage_runs.pipeline.recommend");
  const double appended_before = CounterValue("stream.appended");
  const double evicted_before = CounterValue("stream.evicted");

  // Batch 1: below min_assess_rows — no assessment yet.
  StatusOr<MonitorEvent> e0 = monitor.Ingest("acme", ConstantBatch(24));
  ASSERT_TRUE(e0.ok()) << e0.status().ToString();
  EXPECT_FALSE(e0->assessed);
  EXPECT_EQ(e0->resident, 24u);

  // Batch 2 crosses the threshold: ONE initial assessment over everything
  // but confidence (no current SKU, so no rightsizing either).
  StatusOr<MonitorEvent> e1 = monitor.Ingest("acme", ConstantBatch(24));
  ASSERT_TRUE(e1.ok());
  EXPECT_TRUE(e1->assessed);
  EXPECT_TRUE(e1->initial);
  const dma::StageMask initial_mask =
      dma::kStagePreprocess | dma::kStageQuality | dma::kStageLayout |
      dma::kStageRecommend | dma::kStageBaseline;
  EXPECT_EQ(e1->stage_mask, initial_mask);
  EXPECT_EQ(e1->completed_stages, initial_mask);
  EXPECT_FALSE(e1->elastic_sku_id.empty());

  // Batch 3: same distribution — no drift, no assessment.
  StatusOr<MonitorEvent> e2 = monitor.Ingest("acme", ConstantBatch(24));
  ASSERT_TRUE(e2.ok());
  EXPECT_FALSE(e2->assessed);
  EXPECT_TRUE(e2->drifted_dims.empty());

  // Batch 4 triples CPU: window mean moves well past tolerance on exactly
  // one dimension, so the monitor re-assesses ONLY the drift-affected
  // stages — no baseline, never confidence.
  StatusOr<MonitorEvent> e3 = monitor.Ingest("acme", ConstantBatch(24, 3.0));
  ASSERT_TRUE(e3.ok());
  EXPECT_TRUE(e3->assessed);
  EXPECT_FALSE(e3->initial);
  ASSERT_EQ(e3->drifted_dims.size(), 1u);
  EXPECT_EQ(e3->drifted_dims[0], ResourceDim::kCpu);
  const dma::StageMask drift_mask = dma::kStagePreprocess |
                                    dma::kStageQuality | dma::kStageLayout |
                                    dma::kStageRecommend;
  EXPECT_EQ(e3->stage_mask, drift_mask);
  EXPECT_EQ(e3->completed_stages, drift_mask);

  // The per-stage counters are the proof: baseline ran once (the initial
  // assessment), confidence never, recommend twice.
  EXPECT_EQ(CounterValue("stream.stage_runs.pipeline.baseline") -
                baseline_runs_before,
            1.0);
  EXPECT_EQ(CounterValue("stream.stage_runs.pipeline.confidence") -
                confidence_runs_before,
            0.0);
  EXPECT_EQ(CounterValue("stream.stage_runs.pipeline.recommend") -
                recommend_runs_before,
            2.0);

  // Accounting identity: every appended row is either resident or evicted.
  StatusOr<MonitorEvent> e4 = monitor.Ingest("acme", ConstantBatch(24, 3.0));
  ASSERT_TRUE(e4.ok());
  EXPECT_EQ(e4->evicted, 24u);
  EXPECT_EQ(e4->resident, 96u);
  const double appended_delta = CounterValue("stream.appended") -
                                appended_before;
  const double evicted_delta = CounterValue("stream.evicted") - evicted_before;
  EXPECT_EQ(appended_delta, 120.0);
  EXPECT_EQ(appended_delta - evicted_delta,
            static_cast<double>(monitor.window("acme")->resident_rows()));
  EXPECT_EQ(monitor.num_customers(), 1u);
}

TEST_F(StreamFixture, RightsizingRidesAlongWithCurrentSku) {
  MonitorOptions options;
  options.window_rows = 96;
  options.min_assess_rows = 24;
  options.current_sku_id = "DB_GP_Gen5_40";
  StreamMonitor monitor(pipeline_, options);

  StatusOr<MonitorEvent> initial = monitor.Ingest("beta", ConstantBatch(24));
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  ASSERT_TRUE(initial->assessed);
  EXPECT_TRUE(initial->initial);
  EXPECT_TRUE(initial->stage_mask & dma::kStageRightsizing);
  EXPECT_TRUE(initial->completed_stages & dma::kStageRightsizing);
  EXPECT_FALSE(initial->stage_mask & dma::kStageConfidence);

  StatusOr<MonitorEvent> drift = monitor.Ingest("beta", ConstantBatch(48, 3.0));
  ASSERT_TRUE(drift.ok());
  ASSERT_TRUE(drift->assessed);
  EXPECT_FALSE(drift->initial);
  EXPECT_TRUE(drift->completed_stages & dma::kStageRightsizing);
  EXPECT_FALSE(drift->completed_stages & dma::kStageBaseline);
}

TEST_F(StreamFixture, BatchMissingWindowDimensionFailsWithoutSideEffects) {
  MonitorOptions options;
  options.min_assess_rows = 1000;  // keep the pipeline out of this test
  StreamMonitor monitor(pipeline_, options);
  ASSERT_TRUE(monitor.Ingest("gamma", ConstantBatch(8)).ok());
  ASSERT_EQ(monitor.window("gamma")->resident_rows(), 8u);

  telemetry::PerfTrace narrow;
  ASSERT_TRUE(
      narrow.SetSeries(ResourceDim::kCpu, std::vector<double>(4, 0.5)).ok());
  StatusOr<MonitorEvent> bad = monitor.Ingest("gamma", narrow);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.window("gamma")->resident_rows(), 8u);

  telemetry::PerfTrace empty;
  EXPECT_FALSE(monitor.Ingest("delta", empty).ok());
  EXPECT_EQ(monitor.window("delta"), nullptr);
}

// ---------------------------------------------------------------------------
// Seeded drift soak: a pure-hash DriftPlan ramps one dimension mid-stream;
// the monitor must trip within two batches of the planned onset, re-assess
// only the masked stages, and keep the row accounting identity.

TEST_F(StreamFixture, DriftSoakTripsAtPlannedTick) {
  constexpr std::size_t kHorizon = 240;
  constexpr std::size_t kBatchRows = 24;
  const sim::DriftPlan plan(917, 1.0, 4.0, kHorizon);

  // Constant series make the pre-ramp window means exact, so the trip tick
  // is analytically predictable from the plan alone (pure hash: any session
  // replaying seed 917 sees the same ramp).
  telemetry::PerfTrace full = ConstantBatch(kHorizon);
  const std::vector<ResourceDim> dims = full.PresentDims();
  std::string key;
  sim::DriftPlan::Ramp ramp;
  for (int i = 0; i < 64 && key.empty(); ++i) {
    const std::string candidate = "cust" + std::to_string(i);
    const sim::DriftPlan::Ramp r = plan.RampFor(candidate, dims);
    if (r.active && r.factor >= 3.0) {
      key = candidate;
      ramp = r;
    }
  }
  ASSERT_FALSE(key.empty()) << "no key drew a factor >= 3.0 ramp";
  ASSERT_GE(ramp.start_row, kHorizon / 4);
  ASSERT_LT(ramp.start_row, 3 * kHorizon / 4);
  ASSERT_TRUE(plan.ApplyTo(key, &full).ok());

  MonitorOptions options;
  options.window_rows = 96;
  options.min_assess_rows = 48;
  options.drift_tolerance = 0.25;
  StreamMonitor monitor(pipeline_, options);
  const double appended_before = CounterValue("stream.appended");
  const double evicted_before = CounterValue("stream.evicted");
  const double trips_before = CounterValue("stream.drift_trips");

  int first_reassess_batch = -1;
  int initial_batch = -1;
  for (std::size_t b = 0; b < kHorizon / kBatchRows; ++b) {
    const telemetry::PerfTrace batch =
        full.Window(b * kBatchRows, kBatchRows);
    StatusOr<MonitorEvent> event = monitor.Ingest(key, batch);
    ASSERT_TRUE(event.ok()) << "batch " << b << ": "
                            << event.status().ToString();
    if (event->assessed && event->initial) {
      initial_batch = static_cast<int>(b);
    }
    if (event->assessed && !event->initial && first_reassess_batch < 0) {
      first_reassess_batch = static_cast<int>(b);
      ASSERT_EQ(event->drifted_dims.size(), 1u);
      EXPECT_EQ(event->drifted_dims[0], ramp.dim);
      EXPECT_FALSE(event->completed_stages & dma::kStageBaseline);
      EXPECT_FALSE(event->completed_stages & dma::kStageConfidence);
      EXPECT_TRUE(event->completed_stages & dma::kStageRecommend);
    }
  }
  EXPECT_EQ(initial_batch, 1);  // 48 rows = min_assess_rows after batch 1
  ASSERT_GE(first_reassess_batch, 0) << "the planned ramp never tripped";
  const int planned_batch = static_cast<int>(ramp.start_row / kBatchRows);
  EXPECT_GE(first_reassess_batch, planned_batch);
  EXPECT_LE(first_reassess_batch, planned_batch + 2);
  EXPECT_GE(CounterValue("stream.drift_trips") - trips_before, 1.0);

  // appended == evicted + resident over the whole soak.
  const double appended_delta =
      CounterValue("stream.appended") - appended_before;
  const double evicted_delta = CounterValue("stream.evicted") - evicted_before;
  EXPECT_EQ(appended_delta, static_cast<double>(kHorizon));
  EXPECT_EQ(appended_delta - evicted_delta,
            static_cast<double>(monitor.window(key)->resident_rows()));
}

// ---------------------------------------------------------------------------
// Concurrency soak (TSan target): one appender streams batches while
// readers snapshot quantiles, means, exceedance counts and materialised
// traces through the window's lock.

TEST(StreamConcurrencySoakTest, ReadersRaceAppender) {
  MonitorOptions options;
  options.window_rows = 64;
  CustomerWindow window("racy", {ResourceDim::kCpu, ResourceDim::kIops},
                        options);

  constexpr int kBatches = 200;
  constexpr std::size_t kRows = 8;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread appender([&]() {
    Rng rng(5);
    for (int b = 0; b < kBatches; ++b) {
      telemetry::PerfTrace batch;
      std::vector<double> cpu(kRows), iops(kRows);
      for (std::size_t i = 0; i < kRows; ++i) {
        cpu[i] = rng.Uniform();
        iops[i] = 1000.0 * rng.Uniform();
      }
      if (!batch.SetSeries(ResourceDim::kCpu, std::move(cpu)).ok() ||
          !batch.SetSeries(ResourceDim::kIops, std::move(iops)).ok() ||
          !window.Append(batch).ok()) {
        ++failures;
        break;
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&]() {
      catalog::ResourceVector caps;
      caps.Set(ResourceDim::kCpu, 0.5);
      caps.Set(ResourceDim::kIops, 400.0);
      while (!done.load()) {
        const double q = window.Quantile(ResourceDim::kCpu, 0.9);
        const double mean = window.WindowMean(ResourceDim::kIops);
        const std::size_t exceeding = window.CountExceedingUnion(caps);
        const telemetry::PerfTrace snapshot = window.MaterializeTrace();
        if (q < 0.0 || q > 1.0 || mean < 0.0 ||
            exceeding > options.window_rows ||
            snapshot.num_samples() > options.window_rows) {
          ++failures;
          break;
        }
      }
    });
  }
  appender.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(window.resident_rows(), 64u);
  EXPECT_EQ(window.total_rows(), kBatches * kRows);

  // After the race, the incremental state still equals a rebuild.
  const telemetry::PerfTrace resident = window.MaterializeTrace();
  telemetry::TraceStatsCache rebuilt(resident);
  EXPECT_EQ(window.Quantile(ResourceDim::kCpu, 0.95),
            rebuilt.Quantile(ResourceDim::kCpu, 0.95));
}

// ---------------------------------------------------------------------------
// DriftPlan / RampDimension / SpoolCustomerId satellites.

TEST(DriftPlanTest, PureHashRampIsReplayableAndBounded) {
  const std::vector<ResourceDim> dims = {ResourceDim::kCpu,
                                         ResourceDim::kMemoryGb,
                                         ResourceDim::kIops};
  const sim::DriftPlan plan_a(42, 0.5, 3.0, 400);
  const sim::DriftPlan plan_b(42, 0.5, 3.0, 400);
  int active = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "tenant" + std::to_string(i);
    const sim::DriftPlan::Ramp first = plan_a.RampFor(key, dims);
    const sim::DriftPlan::Ramp replay = plan_b.RampFor(key, dims);
    ASSERT_EQ(first.active, replay.active);
    if (!first.active) continue;
    ++active;
    ASSERT_EQ(first.dim, replay.dim);
    ASSERT_EQ(first.start_row, replay.start_row);
    ASSERT_EQ(first.factor, replay.factor);
    EXPECT_GE(first.start_row, 100u);  // middle half of the horizon
    EXPECT_LT(first.start_row, 300u);
    EXPECT_GT(first.factor, 1.0);
    EXPECT_LE(first.factor, 3.0);
    EXPECT_NE(std::find(dims.begin(), dims.end(), first.dim), dims.end());
  }
  // drift_fraction 0.5 picks roughly half the keys.
  EXPECT_GT(active, 60);
  EXPECT_LT(active, 140);

  const sim::DriftPlan never(42, 0.0, 3.0, 400);
  EXPECT_FALSE(never.RampFor("tenant0", dims).active);
  const sim::DriftPlan always(42, 1.0, 3.0, 400);
  EXPECT_TRUE(always.RampFor("tenant0", dims).active);
}

TEST(DriftPlanTest, ApplyToRampsExactlyThePlannedSuffix) {
  const sim::DriftPlan plan(77, 1.0, 2.5, 64);
  telemetry::PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu,
                              std::vector<double>(64, 1.0)).ok());
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kIops,
                              std::vector<double>(64, 100.0)).ok());
  const sim::DriftPlan::Ramp ramp = plan.RampFor("k", trace.PresentDims());
  ASSERT_TRUE(ramp.active);
  ASSERT_TRUE(plan.ApplyTo("k", &trace).ok());
  for (ResourceDim dim : trace.PresentDims()) {
    const std::vector<double>& values = trace.Values(dim);
    const double base = dim == ResourceDim::kCpu ? 1.0 : 100.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double expected = (dim == ramp.dim && i >= ramp.start_row)
                                  ? base * ramp.factor
                                  : base;
      ASSERT_EQ(values[i], expected)
          << catalog::ResourceDimName(dim) << " row " << i;
    }
  }

  // Unchosen keys are a strict no-op.
  const sim::DriftPlan none(77, 0.0, 2.5, 64);
  telemetry::PerfTrace untouched;
  ASSERT_TRUE(untouched.SetSeries(ResourceDim::kCpu,
                                  std::vector<double>(64, 1.0)).ok());
  const std::uint64_t generation = untouched.generation();
  ASSERT_TRUE(none.ApplyTo("k", &untouched).ok());
  EXPECT_EQ(untouched.generation(), generation);
}

TEST(RampDimensionTest, ScalesSuffixAndBumpsGeneration) {
  telemetry::PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, {1.0, 1.0, 1.0, 1.0}).ok());
  const std::uint64_t generation = trace.generation();
  ASSERT_TRUE(
      workload::RampDimension(&trace, ResourceDim::kCpu, 2, 3.0).ok());
  EXPECT_EQ(trace.Values(ResourceDim::kCpu),
            (std::vector<double>{1.0, 1.0, 3.0, 3.0}));
  EXPECT_EQ(trace.generation(), generation + 1);

  // Past-the-end start is a documented no-op (the mutation still lands).
  ASSERT_TRUE(
      workload::RampDimension(&trace, ResourceDim::kCpu, 10, 3.0).ok());
  EXPECT_EQ(trace.Values(ResourceDim::kCpu),
            (std::vector<double>{1.0, 1.0, 3.0, 3.0}));

  EXPECT_FALSE(
      workload::RampDimension(&trace, ResourceDim::kIops, 0, 2.0).ok());
  EXPECT_FALSE(workload::RampDimension(nullptr, ResourceDim::kCpu, 0, 2.0).ok());
}

TEST(SpoolCustomerIdTest, StripsFromFirstDot) {
  EXPECT_EQ(serve::SpoolCustomerId("/spool/acme.0001.csv"), "acme");
  EXPECT_EQ(serve::SpoolCustomerId("/spool/acme.0002.csv"), "acme");
  EXPECT_EQ(serve::SpoolCustomerId("plain.csv"), "plain");
  EXPECT_EQ(serve::SpoolCustomerId("/a/b/noext"), "noext");
}

// ---------------------------------------------------------------------------
// `doppler monitor` CLI end to end over a spool directory.

class MonitorSpoolDir {
 public:
  explicit MonitorSpoolDir(const std::string& name) {
    dir_ = std::filesystem::temp_directory_path() /
           ("doppler_stream_test_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~MonitorSpoolDir() { std::filesystem::remove_all(dir_); }

  std::string Write(const std::string& name, const std::string& text) {
    const std::filesystem::path path = dir_ / name;
    EXPECT_TRUE(obs::WriteTextFile(path.string(), text).ok());
    return path.string();
  }

  std::string path() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

constexpr char kBatchCsv[] =
    "t_seconds,cpu,memory,iops\n"
    "0,0.2,4.0,300\n600,0.5,4.5,800\n1200,0.9,5.0,2500\n"
    "1800,0.4,4.2,700\n2400,0.6,4.8,1200\n";

TEST(MonitorCliTest, EndToEndJsonSpool) {
  MonitorSpoolDir spool("cli_json");
  // Two numbered drops address ONE customer stream ("acme"), unlike serve
  // where each file is an independent request.
  spool.Write("acme.0001.csv", kBatchCsv);
  spool.Write("acme.0002.csv", kBatchCsv);
  std::ostringstream out;
  const int code = dma::CliMain(
      {"monitor", "--spool", spool.path(), "--rounds", "1", "--window-rows",
       "32", "--min-assess-rows", "4", "--json"},
      out);
  EXPECT_EQ(code, 0) << out.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"customer_id\":\"acme\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"initial\":true"), std::string::npos) << text;
  EXPECT_NE(text.find("\"resident\":5"), std::string::npos) << text;
  EXPECT_NE(text.find("\"resident\":10"), std::string::npos) << text;
}

TEST(MonitorCliTest, TextSummaryWritesOutFile) {
  MonitorSpoolDir spool("cli_text");
  spool.Write("acme.0001.csv", kBatchCsv);
  const std::string log_path = spool.path() + "/monitor.log";
  std::ostringstream out;
  const int code = dma::CliMain(
      {"monitor", "--spool", spool.path(), "--rounds", "1", "--window-rows",
       "32", "--min-assess-rows", "4", "--out", log_path},
      out);
  EXPECT_EQ(code, 0) << out.str();
  EXPECT_NE(out.str().find("wrote monitor log for 1 batches"),
            std::string::npos)
      << out.str();
  std::ifstream log(log_path);
  std::stringstream contents;
  contents << log.rdbuf();
  EXPECT_NE(contents.str().find("monitored 1 batches across 1 customers"),
            std::string::npos)
      << contents.str();
}

TEST(MonitorCliTest, EmptySpoolReturnsNotFound) {
  MonitorSpoolDir spool("cli_empty");
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"monitor", "--spool", spool.path(), "--rounds",
                          "1", "--poll-ms", "1"},
                         out),
            4);  // kNotFound
  std::ostringstream err;
  EXPECT_EQ(dma::CliMain({"monitor"}, err), 3);  // missing --spool
}

}  // namespace
}  // namespace doppler::stream
