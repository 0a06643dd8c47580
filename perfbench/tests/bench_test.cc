// Unit tests of the benchmark's own measurement code:
//   python3 perfbench/run.py --unit-tests

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // Deliberately unsorted.
  return values;
}

TEST(PercentileTest, NearestRankOnOneToHundred) {
  const std::vector<double> values = OneTo(100);
  EXPECT_EQ(Percentile(values, 50.0), 50.0);
  EXPECT_EQ(Percentile(values, 95.0), 95.0);
  EXPECT_EQ(Percentile(values, 99.0), 99.0);
  EXPECT_EQ(Percentile(values, 100.0), 100.0);
  EXPECT_EQ(Percentile(values, 0.0), 1.0);
}

TEST(PercentileTest, NeverInterpolates) {
  // Rank ceil(0.95 * 20) = 19: the 19th smallest sample, not a blend.
  EXPECT_EQ(Percentile(OneTo(20), 95.0), 19.0);
  // Rank ceil(0.5 * 3) = 2: the middle of three.
  EXPECT_EQ(Percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_EQ(Percentile({1.0, 2.0}, 50.0), 1.0);
  EXPECT_EQ(Percentile({7.5}, 95.0), 7.5);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(WindowTest, OneSpoiledWindowDoesNotMoveTheResult) {
  // Ten ops per second, 1 ms each, in five windows of four ops; the third
  // window is stalled by outside load (0.5 s per op, 100 ms latency).
  std::vector<OpRecord> records;
  double t = 0.0;
  for (int i = 0; i < 20; ++i) {
    const bool spoiled = i >= 8 && i < 12;
    t += spoiled ? 0.5 : 0.1;
    records.push_back({t, 1.0, spoiled ? 0.1 : 0.001});
  }
  const WindowedStats stats = FastQuartileOfWindows(records, 5);
  EXPECT_EQ(stats.samples, 20u);
  EXPECT_NEAR(stats.ops_per_s, 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.p50, 0.001);
  EXPECT_DOUBLE_EQ(stats.p95, 0.001);
}

TEST(WindowTest, AUniformSlowdownMovesEveryWindow) {
  std::vector<OpRecord> fast;
  std::vector<OpRecord> slow;
  for (int i = 1; i <= 40; ++i) {
    fast.push_back({0.1 * i, 1.0, 0.001 * (1 + i % 4)});
    slow.push_back({0.12 * i, 1.0, 0.0012 * (1 + i % 4)});
  }
  const WindowedStats a = FastQuartileOfWindows(fast, 10);
  const WindowedStats b = FastQuartileOfWindows(slow, 10);
  EXPECT_NEAR(b.ops_per_s, a.ops_per_s / 1.2, 1e-9);
  EXPECT_NEAR(b.p50, a.p50 * 1.2, 1e-12);
  EXPECT_NEAR(b.p95, a.p95 * 1.2, 1e-12);
}

TEST(WindowTest, FailedOpsGiveNoLatencyAndNoThroughput) {
  // One window; the failed op (latency < 0, no OK ops) still takes time.
  const std::vector<OpRecord> records = {{1.0, 1.0, 0.5},
                                         {2.0, 0.0, -1.0},
                                         {3.0, 1.0, 0.7},
                                         {4.0, 2.0, 0.9}};
  const WindowedStats stats = FastQuartileOfWindows(records, 1);
  EXPECT_EQ(stats.samples, 3u);
  EXPECT_DOUBLE_EQ(stats.ops_per_s, 1.0);
  EXPECT_DOUBLE_EQ(stats.p50, 0.7);
  EXPECT_DOUBLE_EQ(stats.p95, 0.9);
  EXPECT_EQ(FastQuartileOfWindows({}, 5).samples, 0u);
}

TEST(DueTimeLatencyTest, ChargesGeneratorStallsToTheRequest) {
  // Requests due every 100 ms. The generator stalls and sends request 1 at
  // 250 ms; it completes at 300 ms. Its latency is 200 ms from its due
  // time, not the 50 ms from its send time. Request 2 is never answered.
  const std::vector<double> due = {0.0, 0.1, 0.2, 0.3};
  const std::vector<double> sent = {0.0, 0.25, 0.26, 0.3};
  const std::vector<double> done = {0.04, 0.3, -1.0, 0.35};
  const std::vector<double> latency = DueTimeLatencies(due, done);
  ASSERT_EQ(latency.size(), 4u);
  EXPECT_DOUBLE_EQ(latency[0], 0.04);
  EXPECT_DOUBLE_EQ(latency[1], 0.2);
  EXPECT_DOUBLE_EQ(latency[2], -1.0);
  EXPECT_DOUBLE_EQ(latency[3], 0.05);
  const std::vector<double> late = Lateness(due, sent);
  ASSERT_EQ(late.size(), 4u);
  EXPECT_DOUBLE_EQ(late[0], 0.0);
  EXPECT_DOUBLE_EQ(late[1], 0.15);
  EXPECT_DOUBLE_EQ(late[2], 0.06);
  EXPECT_DOUBLE_EQ(late[3], 0.0);
}

TEST(DueTimeLatencyTest, EarlySendsAreNotNegativeLateness) {
  EXPECT_EQ(Lateness({1.0}, {0.9}), std::vector<double>{0.0});
}

TEST(OpLedgerTest, DegradedCountsAsFailedAndMissesTheLimit) {
  OpLedger ledger;
  ledger.Add(OpOutcome::kOk, 0.010, 0.1);
  ledger.Add(OpOutcome::kOk, 0.200, 0.1);       // OK but over the limit.
  ledger.Add(OpOutcome::kDegraded, 0.001, 0.1);  // Fast, yet failed.
  ledger.Add(OpOutcome::kShed, 0.0, 0.1);
  ledger.Add(OpOutcome::kExpired, 0.05, 0.1);
  ledger.Add(OpOutcome::kFailed, 0.05, 0.1);
  EXPECT_EQ(ledger.attempted(), 6u);
  EXPECT_EQ(ledger.ok(), 2u);
  EXPECT_EQ(ledger.failed(), 4u);
  EXPECT_DOUBLE_EQ(ledger.failed_fraction(), 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(ledger.slo_met_fraction(), 1.0 / 6.0);
}

TEST(OpLedgerTest, EmptyLedgerReportsZero) {
  const OpLedger ledger;
  EXPECT_EQ(ledger.failed_fraction(), 0.0);
  EXPECT_EQ(ledger.slo_met_fraction(), 0.0);
}

TEST(TracerTest, SelfTimeSubtractsDirectChildren) {
  Tracer tracer(true);
  {
    ScopedSpan op(&tracer, "bench.op", 7);
    { ScopedSpan a(&tracer, "util.CsvTable::ReadFile", 7); }
    {
      ScopedSpan b(&tracer, "dma.StageRecommend", 7);
      b.set_failed(true);
      { ScopedSpan c(&tracer, "core.PricePerformanceCurve::Build", 7, true); }
    }
  }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_TRUE(spans[2].failed);
  EXPECT_TRUE(spans[3].replayed);
  const std::vector<double> self = tracer.SelfSeconds();
  EXPECT_NEAR(self[0], spans[0].seconds() - spans[1].seconds() -
                           spans[2].seconds(),
              1e-12);
  EXPECT_NEAR(self[2], spans[2].seconds() - spans[3].seconds(), 1e-12);
  EXPECT_DOUBLE_EQ(self[3], spans[3].seconds());
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan span(&tracer, "bench.op"); }
  { ScopedSpan span(nullptr, "bench.op"); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(ScheduleTest, SameSeedSameScheduleAndFixedCount) {
  const std::vector<double> a = PoissonSchedule(5, 45.0, 10.0);
  EXPECT_EQ(a, PoissonSchedule(5, 45.0, 10.0));
  EXPECT_NE(a, PoissonSchedule(6, 45.0, 10.0));
  ASSERT_EQ(a.size(), 450u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 10.0);
  EXPECT_EQ(PoissonSchedule(5, 1.0, 0.1).size(), 1u);
}

// Small inputs keep the digest tests fast; the generators are the ones the
// workloads use.
InputSizes Small() {
  InputSizes sizes;
  sizes.fleet_batches = 1;
  sizes.fleet_batch_traces = 20;
  sizes.fleet_dirty_fraction = 0.5;
  sizes.confidence_traces = 2;
  sizes.serve_traces = 4;
  sizes.monitor_customers = 3;
  sizes.monitor_days = 4;
  return sizes;
}

class InputDigestTest : public ::testing::Test {
 protected:
  // Relative to the working directory: the benchmark writes nowhere else.
  const std::string dir_ = "perfbench_test_inputs";
  void TearDown() override { std::filesystem::remove_all(dir_); }
};

TEST_F(InputDigestTest, FleetInputsFollowTheSeed) {
  auto a = MakeFleetInputs(1, Small(), dir_ + "/a");
  auto b = MakeFleetInputs(1, Small(), dir_ + "/b");
  auto c = MakeFleetInputs(2, Small(), dir_ + "/c");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->digest, b->digest);
  EXPECT_EQ(a->dirty_files, b->dirty_files);
  EXPECT_GT(a->dirty_files, 0);
  EXPECT_NE(a->digest, c->digest);
  ASSERT_EQ(a->batches.size(), 1u);
  EXPECT_EQ(a->batches[0].size(), 20u);
  EXPECT_TRUE(std::filesystem::exists(a->batches[0][0].path));
}

TEST_F(InputDigestTest, ConfidenceInputsFollowTheSeed) {
  auto a = MakeConfidenceInputs(1, Small(), dir_ + "/a");
  auto b = MakeConfidenceInputs(1, Small(), dir_ + "/b");
  auto c = MakeConfidenceInputs(2, Small(), dir_ + "/c");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->digest, b->digest);
  EXPECT_NE(a->digest, c->digest);
  EXPECT_EQ(a->files.size(), 2u);
}

TEST(InputDigestPureTest, ServeInputsFollowTheSeed) {
  auto a = MakeServeInputs(1, Small());
  auto b = MakeServeInputs(1, Small());
  auto c = MakeServeInputs(2, Small());
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->digest, b->digest);
  EXPECT_NE(a->digest, c->digest);
  ASSERT_EQ(a->traces.size(), 4u);
  EXPECT_EQ(a->traces[0].num_samples(), 7u * 144u);
}

TEST(InputDigestPureTest, MonitorInputsFollowTheSeed) {
  auto a = MakeMonitorInputs(1, Small());
  auto b = MakeMonitorInputs(1, Small());
  auto c = MakeMonitorInputs(2, Small());
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->digest, b->digest);
  EXPECT_EQ(a->drifting_customers, b->drifting_customers);
  EXPECT_NE(a->digest, c->digest);
  ASSERT_EQ(a->batches.size(), 3u);
  ASSERT_EQ(a->batches[0].size(), 4u);
  EXPECT_EQ(a->batches[0][0].num_samples(), 144u);
}

TEST(InputDigestPureTest, PopulationMixIsExact) {
  // The default mix over 64 customers: round(0.73 * 64) = 47 flat,
  // round(0.03 * 64) = 2 simple, 15 complex; ids stay unique.
  auto customers = MixedPopulation(64, 7.0, 3);
  ASSERT_TRUE(customers.ok());
  int counts[3] = {0, 0, 0};
  std::vector<std::string> ids;
  for (const auto& customer : *customers) {
    ++counts[static_cast<int>(customer.archetype)];
    ids.push_back(customer.id);
  }
  EXPECT_EQ(counts[0], 47);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 15);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

}  // namespace
}  // namespace perfbench
