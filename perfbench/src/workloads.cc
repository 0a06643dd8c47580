#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "catalog/catalog.h"
#include "catalog/pricing.h"
#include "core/price_performance.h"
#include "core/throttling.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "exec/fleet_assessor.h"
#include "exec/thread_pool.h"
#include "quality/quality_gate.h"
#include "serve/assessment_service.h"
#include "serve/snapshot_registry.h"
#include "stats.h"
#include "stream/monitor.h"
#include "telemetry/trace_io.h"
#include "tracer.h"
#include "util/csv.h"

namespace perfbench {
namespace {

using doppler::CsvTable;
using doppler::Status;
using doppler::StatusOr;
using doppler::dma::AssessmentOutcome;
using doppler::dma::AssessmentRequest;
using doppler::telemetry::PerfTrace;
using Pipeline = doppler::dma::SkuRecommendationPipeline;
using PipelinePtr = std::shared_ptr<const Pipeline>;

// --- Workload constants -----------------------------------------------------
// Set-up is repeated and its median reported, so one slow repetition (page
// faults, a noisy neighbour) does not move setup_s.
constexpr int kSetupRepeats = 7;
// The over-provisioned SKU existing monitor customers run today, so every
// monitor assessment includes right-sizing (paper §5.2).
constexpr const char* kCurrentSku = "DB_GP_Gen5_40";
// serve_open arrival rate: about half the rate the service sustains on a
// 4-vCPU VM whose neighbours steal up to 1.6 vCPUs (~55 requests/s; 90-95
// with none stolen). See README.md.
constexpr double kServeRate = 30.0;
constexpr int kServeQueueDepth = 64;
// Latency limits behind slo_met_fraction, a few times each workload's
// latency_p95_ms when this benchmark was added, on a 4-vCPU host.
constexpr double kFleetBatchLimitS = 2.0;
constexpr double kConfidenceLimitS = 0.1;
constexpr double kServeLimitS = 0.2;
constexpr double kMonitorLimitS = 0.01;
// serve_open is invalid when the generator fell this far behind on 1% of
// sends (most of a request's service time): the arrival pattern it offered
// is then no longer the schedule it claims. Host jitter stays far below.
constexpr double kMaxGeneratorLateP99S = 0.025;
constexpr double kWarmupSeconds = 0.5;
// Windows a run is split into; it reports their fast quartile.
constexpr int kWindows = 10;
// Requests replayed per layer in the traced run.
constexpr std::size_t kReplaySample = 8;

double Now() { return Tracer::NowNs() * 1e-9; }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int Jobs() { return doppler::exec::ThreadPool::HardwareConcurrency(); }

// One measured phase: a record per op, the failure ledger, and the wall
// and CPU time the phase took (output checks excluded).
struct Measured {
  OpLedger ledger;
  std::vector<OpRecord> records;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Open loop: throughput is what the schedule offered and answers finish
  /// out of order, so throughput is taken over the whole phase instead of
  /// per window.
  bool open_loop = false;

  WindowedStats Stats() const {
    WindowedStats stats = FastQuartileOfWindows(records, kWindows);
    if (open_loop && ledger.ok() > 0) {
      stats.ops_per_s =
          wall_s > 0.0 ? static_cast<double>(ledger.ok()) / wall_s : 0.0;
    }
    return stats;
  }
  /// Process CPU over the whole phase per OK op. Unlike wall time, CPU time
  /// is not stretched by waiting, so it needs no windows; summed over the
  /// phase it also counts the ops a slow stretch spoils.
  double CpuSecondsPerOp() const {
    return ledger.ok() > 0 ? cpu_s / static_cast<double>(ledger.ok()) : 0.0;
  }
};

class PhaseClock {
 public:
  PhaseClock() : wall0_(Now()), cpu0_(CpuSeconds()) {}
  void StopInto(Measured* m) const {
    m->wall_s = Now() - wall0_;
    m->cpu_s = CpuSeconds() - cpu0_;
  }
  double elapsed() const { return Now() - wall0_; }
  double start() const { return wall0_; }

 private:
  double wall0_;
  double cpu0_;
};

struct ServeStats {
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t expired = 0;
  double queue_depth_p95 = 0.0;
  double late_p95_s = 0.0;
  double late_p99_s = 0.0;
};

struct StreamStats {
  std::uint64_t ticks = 0;
  std::uint64_t assessed = 0;
  std::uint64_t reassessed = 0;
  std::uint64_t reassessed_changed = 0;
  std::uint64_t appended = 0;
  std::uint64_t evicted = 0;
};

// Counts the traced run reports for layers whose work is not a span's
// duration: quality repairs, serve admission outcomes, stream state.
struct LayerSide {
  double rows_repaired = 0.0;
  ServeStats serve;
  StreamStats stream;
};

// --- Set-up -----------------------------------------------------------------

// What the CLI does before its first assessment without --profiles: build
// the catalog, fit the group model offline (120 customers, seed 11) and
// compile the pipeline (num_threads = CLI default, one per core).
StatusOr<PipelinePtr> BuildPipeline(Tracer* tracer) {
  doppler::catalog::SkuCatalog skus;
  {
    ScopedSpan span(tracer, "catalog.BuildAzureLikeCatalog");
    skus = doppler::catalog::BuildAzureLikeCatalog();
  }
  const doppler::catalog::DefaultPricing pricing;
  const doppler::core::NonParametricEstimator estimator;
  StatusOr<doppler::core::GroupModel> model =
      doppler::InternalError("not fitted");
  {
    ScopedSpan span(tracer, "dma.FitGroupModelOffline");
    model = doppler::dma::FitGroupModelOffline(
        skus, pricing, estimator, doppler::catalog::Deployment::kSqlDb,
        /*num_customers=*/120, /*seed=*/11);
    span.set_failed(!model.ok());
  }
  if (!model.ok()) return model.status();
  ScopedSpan span(tracer, "dma.SkuRecommendationPipeline::Create");
  StatusOr<Pipeline> pipeline =
      Pipeline::Create({std::move(skus), std::move(*model)});
  span.set_failed(!pipeline.ok());
  if (!pipeline.ok()) return pipeline.status();
  return std::make_shared<const Pipeline>(std::move(*pipeline));
}

template <typename Front>
struct Setup {
  PipelinePtr pipeline;
  std::unique_ptr<Front> front;
  double median_s = 0.0;
};

// Runs the workload's whole set-up kSetupRepeats times (pipeline plus the
// workload's front: assessor, service or monitor) and keeps the last.
template <typename Front, typename MakeFront>
StatusOr<Setup<Front>> TimedSetup(Tracer* tracer, MakeFront make_front) {
  Setup<Front> setup;
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup.front.reset();
    setup.pipeline.reset();
    const double t0 = Now();
    DOPPLER_ASSIGN_OR_RETURN(setup.pipeline, BuildPipeline(tracer));
    setup.front = make_front(setup.pipeline);
    seconds.push_back(Now() - t0);
  }
  setup.median_s = Percentile(seconds, 50.0);
  return setup;
}

// The output oracle: the same static inputs, strictly serial (jobs 1,
// num_threads 1). DESIGN.md §7 makes assessments bit-identical at every
// thread count, so rendered reports must match byte for byte.
StatusOr<std::unique_ptr<Pipeline>> ReferencePipeline(const Pipeline& p) {
  Pipeline::Config config;
  config.num_threads = 1;
  DOPPLER_ASSIGN_OR_RETURN(
      Pipeline reference,
      Pipeline::Create({p.catalog(), p.group_model()}, config));
  return std::make_unique<Pipeline>(std::move(reference));
}

// --- Layer calls, each inside its span --------------------------------------

// CsvTable::ReadFile then GateTraceCsv: exactly quality::ReadTraceFileGated,
// split so each layer gets its own span.
StatusOr<doppler::quality::GatedTrace> Ingest(const std::string& path,
                                              Tracer* tracer, std::uint64_t id,
                                              bool replayed) {
  StatusOr<CsvTable> table = doppler::InternalError("not read");
  {
    ScopedSpan span(tracer, "util.CsvTable::ReadFile", id, replayed);
    table = CsvTable::ReadFile(path);
    span.set_failed(!table.ok());
  }
  if (!table.ok()) return table.status();
  ScopedSpan span(tracer, "quality.GateTraceCsv", id, replayed);
  StatusOr<doppler::quality::GatedTrace> gated =
      doppler::quality::GateTraceCsv(*table, doppler::quality::GateOptions{});
  span.set_failed(!gated.ok());
  return gated;
}

// The request the CLI builds from one gated trace file.
AssessmentRequest GatedRequest(const std::string& customer_id,
                               doppler::quality::GatedTrace gated) {
  AssessmentRequest request;
  request.customer_id = customer_id;
  request.database_traces = {std::move(gated.trace)};
  request.ingest_quality = std::move(gated.report);
  return request;
}

struct StageCall {
  const char* span;
  doppler::dma::Stage flag;
  Status (Pipeline::*run)(doppler::dma::RequestContext&) const;
};

constexpr StageCall kStageCalls[] = {
    {"dma.StagePreprocess", doppler::dma::kStagePreprocess,
     &Pipeline::StagePreprocess},
    {"dma.StageQuality", doppler::dma::kStageQuality, &Pipeline::StageQuality},
    {"dma.StageLayout", doppler::dma::kStageLayout, &Pipeline::StageLayout},
    {"dma.StageRecommend", doppler::dma::kStageRecommend,
     &Pipeline::StageRecommend},
    {"dma.StageBaseline", doppler::dma::kStageBaseline,
     &Pipeline::StageBaseline},
    {"dma.StageConfidence", doppler::dma::kStageConfidence,
     &Pipeline::StageConfidence},
    {"dma.StageRightsizing", doppler::dma::kStageRightsizing,
     &Pipeline::StageRightsizing},
};

// Pipeline::Assess spelled out stage by stage (what RunStages does for an
// unbounded request with no hook), so each stage gets its own span.
StatusOr<AssessmentOutcome> AssessByStages(const Pipeline& pipeline,
                                           const AssessmentRequest& request,
                                           Tracer* tracer, std::uint64_t id,
                                           bool replayed) {
  doppler::dma::RequestContext ctx(request);
  for (const StageCall& stage : kStageCalls) {
    // Confidence and right-sizing are no-ops unless the request asks.
    const bool noop =
        (stage.flag == doppler::dma::kStageConfidence &&
         !request.compute_confidence) ||
        (stage.flag == doppler::dma::kStageRightsizing &&
         request.current_sku_id.empty());
    ScopedSpan span(noop ? nullptr : tracer, stage.span, id, replayed);
    const Status status = (pipeline.*stage.run)(ctx);
    if (!status.ok()) {
      span.set_failed(true);
      return status;
    }
    ctx.completed_stages |= stage.flag;
    if (stage.flag == doppler::dma::kStageConfidence &&
        ctx.outcome.confidence.has_value()) {
      span.set_units(ctx.outcome.confidence->runs);
    }
  }
  ScopedSpan span(tracer, "dma.Finish", id, replayed);
  return pipeline.Finish(ctx);
}

// The curve runs inside StageRecommend's opaque call; the traced run
// replays PricePerformanceCurve::Build on the same instance trace over the
// pipeline's compiled view, with the pipeline's own pool.
void ReplayCurve(const Pipeline& pipeline, const AssessmentOutcome& outcome,
                 Tracer* tracer, std::uint64_t id) {
  static const doppler::catalog::DefaultPricing pricing;
  static const doppler::core::NonParametricEstimator estimator;
  ScopedSpan span(tracer, "core.PricePerformanceCurve::Build", id,
                  /*replayed=*/true);
  const StatusOr<doppler::core::PricePerformanceCurve> curve =
      doppler::core::PricePerformanceCurve::Build(
          outcome.instance_trace,
          pipeline.compiled().ForDeployment(outcome.target).view(), pricing,
          estimator, pipeline.executor());
  span.set_failed(!curve.ok());
  if (curve.ok()) span.set_value(static_cast<double>(curve->size()));
}

std::string RenderOne(const AssessmentOutcome& outcome, bool stage_seconds,
                      Tracer* tracer, std::uint64_t id, bool replayed) {
  ScopedSpan span(tracer, "dma.RenderAssessmentJson", id, replayed);
  doppler::dma::AssessmentJsonOptions options;
  options.include_stage_seconds = stage_seconds;
  std::string json = doppler::dma::RenderAssessmentJson(outcome, options);
  span.set_value(static_cast<double>(json.size()));
  return json;
}

// Reports compared against the reference leave out the stage seconds, the
// one nondeterministic field of the report.
std::string CheckJson(const AssessmentOutcome& outcome) {
  return RenderOne(outcome, /*stage_seconds=*/false, nullptr, 0, false);
}

// --- serve ------------------------------------------------------------------

doppler::serve::ServiceOptions ServeOptions() {
  doppler::serve::ServiceOptions options;
  options.workers = Jobs();  // serve --jobs $(nproc)
  options.queue_depth = kServeQueueDepth;
  return options;
}

struct ServeFront {
  explicit ServeFront(PipelinePtr pipeline)
      : registry(std::move(pipeline)), service(&registry, ServeOptions()) {}
  doppler::serve::SnapshotRegistry registry;
  doppler::serve::AssessmentService service;  // Destroyed first: drains.
};

struct ServeRun {
  std::vector<OpOutcome> outcomes;
  std::vector<double> latency;  ///< From due time; -1 when never answered.
  std::vector<std::optional<doppler::serve::ServeResponse>> responses;
  ServeStats stats;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// Open loop: request i (pool[i % pool.size()]) is due at due[i] seconds
// after the start, whatever the service is doing. The load thread only
// submits; a second thread collects answers and stamps each one as its
// future becomes ready (polled every 200 us, so stamps are at most that
// late and answers out of submission order are stamped when they land).
ServeRun DriveService(doppler::serve::AssessmentService& service,
                      const std::vector<AssessmentRequest>& pool,
                      const std::vector<double>& due, Tracer* tracer,
                      bool replayed) {
  const std::size_t n = due.size();
  ServeRun run;
  run.outcomes.assign(n, OpOutcome::kFailed);
  run.responses.resize(n);
  std::vector<double> done(n, -1.0);
  std::vector<double> sent(n, 0.0);
  std::vector<double> depth;
  depth.reserve(n);

  struct Pending {
    std::size_t index;
    std::future<doppler::serve::ServeResponse> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> handoff;  // Guarded by mu.
  bool closing = false;         // Guarded by mu.

  const doppler::serve::AssessmentService::Stats before = service.stats();
  const double cpu0 = CpuSeconds();
  const auto origin =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  const double start = Tracer::NsSinceEpoch(origin) * 1e-9;
  std::jthread collector([&] {
    std::vector<Pending> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty()) {
          cv.wait(lock, [&] { return !handoff.empty() || closing; });
        }
        while (!handoff.empty()) {
          pending.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (pending.empty() && closing) return;
      }
      bool progressed = false;
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          done[it->index] = Now();
          run.responses[it->index] = it->future.get();
          it = pending.erase(it);
          progressed = true;
        } else {
          ++it;
        }
      }
      if (!progressed && !pending.empty()) {
        pending.front().future.wait_for(std::chrono::microseconds(200));
      }
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    AssessmentRequest request = pool[i % pool.size()];
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::duration<double>(due[i])));
    sent[i] = Now();
    StatusOr<std::future<doppler::serve::ServeResponse>> admitted =
        doppler::InternalError("not submitted");
    {
      ScopedSpan span(tracer, "serve.AssessmentService::Submit", i, replayed);
      admitted = service.Submit(std::move(request));
      span.set_failed(!admitted.ok());
    }
    depth.push_back(static_cast<double>(service.QueueDepth()));
    if (!admitted.ok()) {
      run.outcomes[i] = admitted.status().code() ==
                                doppler::StatusCode::kResourceExhausted
                            ? OpOutcome::kShed
                            : OpOutcome::kFailed;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back({i, std::move(*admitted)});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closing = true;
  }
  cv.notify_one();
  collector.join();

  double end = start;
  std::vector<double> abs_due(n);
  for (std::size_t i = 0; i < n; ++i) {
    abs_due[i] = start + due[i];
    end = std::max({end, sent[i], done[i]});
  }
  run.latency = DueTimeLatencies(abs_due, done);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& response = run.responses[i];
    if (!response.has_value()) continue;
    if (response->status.ok()) {
      run.outcomes[i] =
          response->confidence_shed ? OpOutcome::kDegraded : OpOutcome::kOk;
    } else if (response->status.code() ==
               doppler::StatusCode::kDeadlineExceeded) {
      run.outcomes[i] = OpOutcome::kExpired;
    }
  }
  run.wall_s = end - start;
  run.cpu_s = CpuSeconds() - cpu0;
  const doppler::serve::AssessmentService::Stats after = service.stats();
  run.stats.shed = after.shed - before.shed;
  run.stats.degraded = after.degraded - before.degraded;
  run.stats.expired = after.expired - before.expired;
  run.stats.queue_depth_p95 = Percentile(depth, 95.0);
  const std::vector<double> late = Lateness(abs_due, sent);
  run.stats.late_p95_s = Percentile(late, 95.0);
  run.stats.late_p99_s = Percentile(late, 99.0);
  return run;
}

AssessmentRequest ServeRequest(std::string customer_id, PerfTrace trace) {
  AssessmentRequest request;
  request.customer_id = std::move(customer_id);
  request.database_traces = {std::move(trace)};
  request.compute_confidence = true;
  return request;
}

// --- stream -----------------------------------------------------------------

doppler::stream::MonitorOptions MonitorOptions() {
  doppler::stream::MonitorOptions options;
  options.current_sku_id = kCurrentSku;
  return options;
}

struct MonitorSample {
  std::size_t tick = 0;
  doppler::dma::StageMask mask = 0;
  std::string sku;
  double monthly_cost = 0.0;
  double throttling = 0.0;
  std::string customer_id;
  PerfTrace window;  ///< Materialised right after the tick (first pass).
};

struct StreamRun {
  std::vector<double> latencies;
  std::vector<double> ends;
  std::vector<OpOutcome> outcomes;
  std::vector<MonitorSample> samples;
  StreamStats stats;
};

// Feeds daily batches round-robin across customers (day-major) into one
// monitor. Every `sample_every`-th assessed tick is sampled for the output
// check; with `keep_windows` the sample also keeps the window it assessed.
StreamRun DriveMonitor(doppler::stream::StreamMonitor& monitor,
                       const std::vector<std::string>& ids,
                       const std::vector<std::vector<PerfTrace>>& batches,
                       Tracer* tracer, bool replayed, std::size_t sample_every,
                       bool keep_windows) {
  StreamRun run;
  std::map<std::string, std::string> last_sku;
  std::size_t days = 0;
  for (const auto& customer : batches) days = std::max(days, customer.size());
  std::size_t tick = 0;
  for (std::size_t day = 0; day < days; ++day) {
    for (std::size_t c = 0; c < ids.size(); ++c, ++tick) {
      if (day >= batches[c].size()) continue;
      const double t0 = Now();
      StatusOr<doppler::stream::MonitorEvent> event =
          doppler::InternalError("not ingested");
      {
        // A replay is not an op of the workload being measured.
        ScopedSpan op(replayed ? nullptr : tracer, "bench.op", tick);
        ScopedSpan span(tracer, "stream.StreamMonitor::Ingest", tick,
                        replayed);
        event = monitor.Ingest(ids[c], batches[c][day]);
        span.set_failed(!event.ok());
        if (event.ok()) span.set_value(event->assessed ? 1.0 : 0.0);
      }
      const double end = Now();
      ++run.stats.ticks;
      run.latencies.push_back(end - t0);
      run.ends.push_back(end);
      run.outcomes.push_back(event.ok() ? OpOutcome::kOk : OpOutcome::kFailed);
      if (!event.ok()) continue;
      run.stats.appended += event->appended;
      run.stats.evicted += event->evicted;
      if (!event->assessed) continue;
      if (!event->initial) {
        ++run.stats.reassessed;
        if (event->elastic_sku_id != last_sku[ids[c]]) {
          ++run.stats.reassessed_changed;
        }
      }
      last_sku[ids[c]] = event->elastic_sku_id;
      if (run.stats.assessed++ % sample_every != 0) continue;
      MonitorSample sample;
      sample.tick = tick;
      sample.mask = event->stage_mask;
      sample.sku = event->elastic_sku_id;
      sample.monthly_cost = event->elastic_monthly_cost;
      sample.throttling = event->elastic_throttling_probability;
      sample.customer_id = ids[c];
      if (keep_windows) {
        sample.window = monitor.window(ids[c])->MaterializeTrace();
      }
      run.samples.push_back(std::move(sample));
    }
  }
  return run;
}

// Splits whole traces into daily batches for a stream replay.
std::vector<std::vector<PerfTrace>> DailyBatches(
    const std::vector<AssessmentRequest>& requests) {
  constexpr std::size_t kDay = doppler::telemetry::kSamplesPerDay;
  std::vector<std::vector<PerfTrace>> batches;
  for (const AssessmentRequest& request : requests) {
    const PerfTrace& trace = request.database_traces.front();
    std::vector<PerfTrace> days;
    for (std::size_t row = 0; row + kDay <= trace.num_samples(); row += kDay) {
      days.push_back(trace.Window(row, kDay));
    }
    batches.push_back(std::move(days));
  }
  return batches;
}

// --- Traced-run replays -----------------------------------------------------
// A workload that does not reach a layer directly still reports it: the
// traced run calls that layer's public entry point on a sample of the
// workload's own requests, with spans marked replayed.

void ReplayIngest(const std::vector<AssessmentRequest>& sample,
                  const std::string& dir, Tracer* tracer, LayerSide* side) {
  std::filesystem::create_directories(dir);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const std::string path = dir + "/replay" + std::to_string(i) + ".csv";
    if (!doppler::telemetry::WriteTraceFile(
             sample[i].database_traces.front(), path)
             .ok()) {
      continue;
    }
    StatusOr<doppler::quality::GatedTrace> gated =
        Ingest(path, tracer, i, /*replayed=*/true);
    if (gated.ok()) side->rows_repaired += gated->report.RepairedDefects();
  }
}

void ReplayStages(const Pipeline& pipeline,
                  const std::vector<AssessmentRequest>& sample,
                  Tracer* tracer) {
  for (std::size_t i = 0; i < sample.size(); ++i) {
    // Confidence is forced on so the bootstrap is measured on every
    // workload's traces, including those whose surface never asks for it.
    AssessmentRequest request = sample[i];
    request.compute_confidence = true;
    StatusOr<AssessmentOutcome> outcome =
        AssessByStages(pipeline, request, tracer, i, /*replayed=*/true);
    if (!outcome.ok()) continue;
    ReplayCurve(pipeline, *outcome, tracer, i);
    RenderOne(*outcome, /*stage_seconds=*/true, tracer, i, /*replayed=*/true);
  }
}

// Summed stage seconds of a batch's outcomes. Over the serial reference's
// outcomes this is the batch's serial work, the numerator of
// exec.parallel_efficiency.
double StageSeconds(const std::vector<StatusOr<AssessmentOutcome>>& results) {
  double seconds = 0.0;
  for (const auto& result : results) {
    if (!result.ok()) continue;
    for (const auto& timing : result->stage_timings) seconds += timing.seconds;
  }
  return seconds;
}

void ReplayExec(const Pipeline& pipeline, const Pipeline& reference,
                const std::vector<AssessmentRequest>& sample, Tracer* tracer) {
  const double serial = StageSeconds(
      doppler::exec::FleetAssessor(&reference, 1).AssessAll(sample));
  const doppler::exec::FleetAssessor assessor(&pipeline, Jobs());
  ScopedSpan span(tracer, "exec.FleetAssessor::AssessAll", 0,
                  /*replayed=*/true);
  const double t0 = Now();
  const auto results = assessor.AssessAll(sample);
  const double wall = Now() - t0;
  span.set_units(static_cast<double>(sample.size()));
  span.set_value(serial / (assessor.jobs() * wall));
  span.set_failed(std::any_of(results.begin(), results.end(),
                              [](const auto& r) { return !r.ok(); }));
}

void ReplayServe(const PipelinePtr& pipeline,
                 const std::vector<AssessmentRequest>& sample,
                 std::uint64_t seed, Tracer* tracer, LayerSide* side) {
  std::vector<AssessmentRequest> pool = sample;
  for (AssessmentRequest& request : pool) request.compute_confidence = true;
  std::vector<double> due =
      PoissonSchedule(DeriveSeed(seed, "replay.serve"), kServeRate, 1.0);
  due.resize(std::min(due.size(), pool.size()));
  ServeFront front(pipeline);
  side->serve = DriveService(front.service, pool, due, tracer, true).stats;
}

void ReplayStream(const Pipeline& pipeline,
                  const std::vector<AssessmentRequest>& sample, Tracer* tracer,
                  LayerSide* side) {
  std::vector<std::string> ids;
  for (const AssessmentRequest& request : sample) {
    ids.push_back(request.customer_id);
  }
  doppler::stream::StreamMonitor monitor(&pipeline, MonitorOptions());
  side->stream = DriveMonitor(monitor, ids, DailyBatches(sample), tracer,
                              /*replayed=*/true, /*sample_every=*/1, false)
                     .stats;
}

// --- Metrics ----------------------------------------------------------------

void AddMetric(RunReport* report, std::string name, double value,
               std::string unit) {
  report->metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string Fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

void AddEndToEnd(RunReport* report, double setup_s, const Measured& m,
                 const std::string& latency_unit_note) {
  const WindowedStats stats = m.Stats();
  AddMetric(report, "setup_s", setup_s, "s");
  AddMetric(report, "ops_per_s", stats.ops_per_s, "1/s");
  AddMetric(report, "latency_p50_ms", stats.p50 * 1e3, "ms");
  AddMetric(report, "latency_p95_ms", stats.p95 * 1e3, "ms");
  AddMetric(report, "slo_met_fraction", m.ledger.slo_met_fraction(),
            "fraction");
  AddMetric(report, "ok_fraction", 1.0 - m.ledger.failed_fraction(),
            "fraction");
  AddMetric(report, "cpu_ms_per_op", m.CpuSecondsPerOp() * 1e3, "ms");
  AddMetric(report, "peak_rss_mb", PeakRssMb(), "MB");
  report->attempted = m.ledger.attempted();
  report->failed = m.ledger.failed();
  std::vector<double> all;
  for (const OpRecord& record : m.records) {
    if (record.latency_s >= 0.0) all.push_back(record.latency_s);
  }
  report->notes.push_back(
      "latency samples: " + std::to_string(stats.samples) + " " +
      latency_unit_note + " in " + std::to_string(kWindows) +
      " windows; fast-quartile window p50 " + Fixed(stats.p50 * 1e3, 3) +
      " ms, p95 " + Fixed(stats.p95 * 1e3, 3) + " ms; whole run p50 " +
      Fixed(Percentile(all, 50.0) * 1e3, 3) + " ms, p95 " +
      Fixed(Percentile(all, 95.0) * 1e3, 3) + " ms");
  report->notes.push_back(
      "ops " + std::to_string(m.ledger.ok()) + " ok / " +
      std::to_string(m.ledger.attempted()) + " attempted in " +
      Fixed(m.wall_s, 3) + " s; failed_fraction " +
      Fixed(m.ledger.failed_fraction(), 6));
}

// Per-layer metrics of the traced run, from its spans and side counts.
void AddPerLayer(RunReport* report, const Tracer& tracer,
                 const LayerSide& side, const Measured& untraced,
                 const Measured& traced) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.SelfSeconds();
  auto matching = [&](const std::string& name) {
    std::vector<const Span*> out;
    for (const Span& span : spans) {
      if (span.name == name) out.push_back(&span);
    }
    return out;
  };
  // Seconds per unit of work, mean over every matching span.
  auto per_unit = [&](const std::string& name) {
    double seconds = 0.0;
    double units = 0.0;
    for (const Span* span : matching(name)) {
      seconds += span->seconds();
      units += span->units;
    }
    return units > 0.0 ? seconds / units : 0.0;
  };
  auto value_per_unit = [&](const std::string& name) {
    double value = 0.0;
    double units = 0.0;
    for (const Span* span : matching(name)) {
      value += span->value;
      units += span->units;
    }
    return units > 0.0 ? value / units : 0.0;
  };
  auto median = [&](const std::string& name, int value_filter) {
    std::vector<double> seconds;
    for (const Span* span : matching(name)) {
      if (value_filter < 0 || span->value == value_filter) {
        seconds.push_back(span->seconds());
      }
    }
    return Percentile(seconds, 50.0);
  };
  auto render_per_unit = [&](bool bytes) {
    const double fleet = bytes ? value_per_unit("dma.RenderFleetAssessmentJson")
                               : per_unit("dma.RenderFleetAssessmentJson");
    const double one = bytes ? value_per_unit("dma.RenderAssessmentJson")
                             : per_unit("dma.RenderAssessmentJson");
    return fleet > 0.0 ? fleet : one;
  };

  AddMetric(report, "util.csv_read_ms",
            per_unit("util.CsvTable::ReadFile") * 1e3, "ms");
  AddMetric(report, "quality.gate_ms", per_unit("quality.GateTraceCsv") * 1e3,
            "ms");
  double op_seconds = 0.0;
  double ingest_seconds = 0.0;
  double covered_seconds = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.name == "bench.op") {
      op_seconds += span.seconds();
      covered_seconds += span.seconds() - self[i];
    } else if (!span.replayed && (span.name == "util.CsvTable::ReadFile" ||
                                  span.name == "quality.GateTraceCsv")) {
      ingest_seconds += span.seconds();
    }
  }
  AddMetric(report, "quality.ingest_share",
            op_seconds > 0.0 ? ingest_seconds / op_seconds : 0.0, "ratio");
  AddMetric(report, "quality.rows_repaired", side.rows_repaired, "count");
  AddMetric(report, "dma.preprocess_ms",
            per_unit("dma.StagePreprocess") * 1e3, "ms");
  AddMetric(report, "dma.recommend_ms", per_unit("dma.StageRecommend") * 1e3,
            "ms");
  AddMetric(report, "dma.baseline_ms", per_unit("dma.StageBaseline") * 1e3,
            "ms");
  double confidence_s = 0.0;
  std::size_t confidence_calls = 0;
  for (const Span* span : matching("dma.StageConfidence")) {
    confidence_s += span->seconds();
    ++confidence_calls;
  }
  AddMetric(report, "dma.confidence_ms",
            confidence_calls > 0 ? confidence_s * 1e3 / confidence_calls : 0.0,
            "ms");
  AddMetric(report, "dma.confidence_run_ms",
            per_unit("dma.StageConfidence") * 1e3, "ms");
  AddMetric(report, "dma.render_ms", render_per_unit(false) * 1e3, "ms");
  AddMetric(report, "dma.render_bytes", render_per_unit(true), "bytes");
  AddMetric(report, "dma.group_fit_ms",
            median("dma.FitGroupModelOffline", -1) * 1e3, "ms");
  AddMetric(report, "dma.pipeline_create_ms",
            median("dma.SkuRecommendationPipeline::Create", -1) * 1e3, "ms");
  AddMetric(report, "core.curve_ms",
            per_unit("core.PricePerformanceCurve::Build") * 1e3, "ms");
  AddMetric(report, "core.curve_candidates",
            value_per_unit("core.PricePerformanceCurve::Build"), "count");
  double assess_all_s = 0.0;
  double efficiency = 0.0;
  const auto assess_all = matching("exec.FleetAssessor::AssessAll");
  for (const Span* span : assess_all) {
    assess_all_s += span->seconds();
    efficiency += span->value;
  }
  const double calls = std::max<double>(1.0, assess_all.size());
  AddMetric(report, "exec.assess_all_s", assess_all_s / calls, "s");
  AddMetric(report, "exec.parallel_efficiency", efficiency / calls, "ratio");
  AddMetric(report, "serve.submit_us",
            median("serve.AssessmentService::Submit", -1) * 1e6, "us");
  AddMetric(report, "serve.queue_depth_p95", side.serve.queue_depth_p95,
            "count");
  AddMetric(report, "serve.shed", side.serve.shed, "count");
  AddMetric(report, "serve.degraded", side.serve.degraded, "count");
  AddMetric(report, "serve.expired", side.serve.expired, "count");
  AddMetric(report, "serve.generator_late_ms", side.serve.late_p95_s * 1e3,
            "ms");
  AddMetric(report, "stream.patch_tick_ms",
            median("stream.StreamMonitor::Ingest", 0) * 1e3, "ms");
  AddMetric(report, "stream.assess_tick_ms",
            median("stream.StreamMonitor::Ingest", 1) * 1e3, "ms");
  const StreamStats& stream = side.stream;
  AddMetric(report, "stream.assess_share",
            stream.ticks > 0 ? static_cast<double>(stream.assessed) /
                                   static_cast<double>(stream.ticks)
                             : 0.0,
            "ratio");
  AddMetric(report, "stream.rows_appended", stream.appended, "count");
  AddMetric(report, "stream.rows_evicted", stream.evicted, "count");
  AddMetric(report, "stream.reassess_changed_ratio",
            stream.reassessed > 0
                ? static_cast<double>(stream.reassessed_changed) /
                      static_cast<double>(stream.reassessed)
                : 0.0,
            "ratio");
  AddMetric(report, "catalog.build_ms",
            median("catalog.BuildAzureLikeCatalog", -1) * 1e3, "ms");

  for (const char* layer :
       {"util", "quality", "dma", "core", "exec", "serve", "stream",
        "catalog"}) {
    const std::string prefix = std::string(layer) + ".";
    double layer_calls = 0.0;
    double failed = 0.0;
    for (const Span& span : spans) {
      if (span.name.compare(0, prefix.size(), prefix) != 0) continue;
      layer_calls += 1.0;
      failed += span.failed ? 1.0 : 0.0;
    }
    AddMetric(report, prefix + "calls", layer_calls, "count");
    AddMetric(report, prefix + "failed_calls", failed, "count");
  }

  const WindowedStats off = untraced.Stats();
  const WindowedStats on = traced.Stats();
  const double untraced_ops = off.ops_per_s;
  const double untraced_p50 = off.p50;
  AddMetric(report, "bench.trace_overhead_ops_pct",
            untraced_ops > 0.0
                ? (untraced_ops - on.ops_per_s) / untraced_ops * 100.0
                : 0.0,
            "%");
  AddMetric(report, "bench.trace_overhead_p50_pct",
            untraced_p50 > 0.0
                ? (on.p50 - untraced_p50) /
                      untraced_p50 * 100.0
                : 0.0,
            "%");
  AddMetric(report, "bench.self_time_coverage",
            op_seconds > 0.0 ? covered_seconds / op_seconds : 0.0, "ratio");
  report->attempted = traced.ledger.attempted();
  report->failed = traced.ledger.failed();
  report->notes.push_back(
      "tracing overhead: ops_per_s " + Fixed(untraced_ops, 2) +
      " untraced vs " + Fixed(on.ops_per_s, 2) +
      " traced; latency_p50_ms " + Fixed(untraced_p50 * 1e3, 3) + " vs " +
      Fixed(on.p50 * 1e3, 3));
}

void Mismatch(RunReport* report, const std::string& what) {
  if (report->correct) report->notes.push_back("OUTPUT MISMATCH: " + what);
  report->correct = false;
}

// Finishes a run: per-layer metrics and the span dump when traced,
// end-to-end metrics otherwise.
Status Finalize(const RunConfig& config, RunReport* report, double setup_s,
                const Tracer& tracer, const LayerSide& side,
                const Measured& untraced, const Measured& traced,
                const std::string& latency_note) {
  if (!config.trace) {
    AddEndToEnd(report, setup_s, untraced, latency_note);
    return doppler::OkStatus();
  }
  AddPerLayer(report, tracer, side, untraced, traced);
  const std::string path = config.work_dir + "/spans-" + config.workload +
                           "-" + std::to_string(config.seed) + ".jsonl";
  DOPPLER_RETURN_IF_ERROR(tracer.WriteJsonLines(path));
  report->notes.push_back("spans: " + std::to_string(tracer.spans().size()) +
                          " written to " + path);
  return doppler::OkStatus();
}

// The traced run measures half its time untraced and half traced, so the
// tracing overhead comes from one process on the same inputs.
// An unmeasured warm-up first lets worker threads start, the allocator
// settle and caches fill, so the measured phase starts in steady state.
template <typename MeasureFn>
void MeasurePhases(const RunConfig& config, Tracer* tracer, MeasureFn measure,
                   Measured* untraced, Measured* traced) {
  Tracer off(false);
  measure(kWarmupSeconds, &off);
  if (!config.trace) {
    *untraced = measure(config.seconds, &off);
    return;
  }
  *untraced = measure(config.seconds / 2, &off);
  *traced = measure(config.seconds / 2, tracer);
}

// --- fleet_week -------------------------------------------------------------

struct FleetBatch {
  std::vector<StatusOr<AssessmentOutcome>> results;
  std::string json;
};

// One `assess-batch --json` invocation after set-up: serial gated ingest
// on the calling thread, AssessAll across the request-level pool, render.
// `serial_seconds` is the batch's summed stage time on the serial
// reference, for the parallel-efficiency value of the AssessAll span.
FleetBatch RunFleetBatch(const std::vector<TraceFile>& files,
                         const doppler::exec::FleetAssessor& assessor,
                         Tracer* tracer, std::uint64_t op,
                         double* rows_repaired, double serial_seconds) {
  ScopedSpan op_span(tracer, "bench.op", op);
  FleetBatch batch;
  std::vector<std::string> ids;
  std::vector<std::size_t> slot(files.size(), files.size());
  std::vector<AssessmentRequest> requests;
  for (std::size_t i = 0; i < files.size(); ++i) {
    ids.push_back(files[i].customer_id);
    StatusOr<doppler::quality::GatedTrace> gated =
        Ingest(files[i].path, tracer, op, false);
    if (!gated.ok()) {
      batch.results.emplace_back(gated.status());
      continue;
    }
    if (rows_repaired != nullptr) {
      *rows_repaired += gated->report.RepairedDefects();
    }
    slot[i] = requests.size();
    requests.push_back(GatedRequest(files[i].customer_id, std::move(*gated)));
    batch.results.emplace_back(doppler::InternalError("request not assessed"));
  }
  {
    ScopedSpan span(tracer, "exec.FleetAssessor::AssessAll", op);
    const double t0 = Now();
    std::vector<StatusOr<AssessmentOutcome>> assessed =
        assessor.AssessAll(requests);
    const double wall = Now() - t0;
    span.set_units(static_cast<double>(requests.size()));
    span.set_value(serial_seconds / (assessor.jobs() * wall));
    for (std::size_t i = 0; i < files.size(); ++i) {
      if (slot[i] < files.size()) {
        batch.results[i] = std::move(assessed[slot[i]]);
      }
    }
  }
  ScopedSpan span(tracer, "dma.RenderFleetAssessmentJson", op);
  doppler::dma::AssessmentJsonOptions options;
  options.include_stage_seconds = false;  // assess-batch without --timings
  batch.json =
      doppler::dma::RenderFleetAssessmentJson(ids, batch.results, options);
  span.set_units(static_cast<double>(files.size()));
  span.set_value(static_cast<double>(batch.json.size()));
  return batch;
}

std::vector<AssessmentRequest> IngestSample(const std::vector<TraceFile>& files,
                                            std::size_t limit) {
  std::vector<AssessmentRequest> sample;
  for (const TraceFile& file : files) {
    if (sample.size() == limit) break;
    StatusOr<doppler::quality::GatedTrace> gated =
        Ingest(file.path, nullptr, 0, false);
    if (!gated.ok()) continue;
    sample.push_back(GatedRequest(file.customer_id, std::move(*gated)));
  }
  return sample;
}

StatusOr<RunReport> RunFleetWeek(const RunConfig& config) {
  RunReport report;
  DOPPLER_ASSIGN_OR_RETURN(
      const FleetInputs inputs,
      MakeFleetInputs(config.seed, config.sizes, config.work_dir + "/fleet"));
  report.notes.push_back(
      "inputs: " + std::to_string(inputs.batches.size()) + " batches of " +
      std::to_string(inputs.batches.front().size()) + " one-week traces, " +
      std::to_string(inputs.dirty_files) + " dirtied; digest " +
      std::to_string(inputs.digest));
  Tracer tracer(config.trace);
  DOPPLER_ASSIGN_OR_RETURN(
      auto setup, (TimedSetup<doppler::exec::FleetAssessor>(
                      &tracer, [](const PipelinePtr& pipeline) {
                        return std::make_unique<doppler::exec::FleetAssessor>(
                            pipeline.get(), Jobs());
                      })));
  DOPPLER_ASSIGN_OR_RETURN(auto reference,
                           ReferencePipeline(*setup.pipeline));
  const doppler::exec::FleetAssessor serial(reference.get(), 1);
  std::vector<std::string> expected;
  std::vector<double> serial_seconds;
  LayerSide side;
  for (const auto& files : inputs.batches) {
    FleetBatch batch =
        RunFleetBatch(files, serial, nullptr, 0, &side.rows_repaired, 0.0);
    expected.push_back(std::move(batch.json));
    serial_seconds.push_back(StageSeconds(batch.results));
  }

  auto measure = [&](double seconds, Tracer* t) {
    Measured m;
    std::vector<double> batch_latency;
    const PhaseClock clock;
    double checking = 0.0;
    double checking_cpu = 0.0;
    for (std::uint64_t iter = 0; clock.elapsed() - checking < seconds;
         ++iter) {
      const std::size_t b = iter % inputs.batches.size();
      const double t0 = Now();
      FleetBatch batch =
          RunFleetBatch(inputs.batches[b], *setup.front, t, iter, nullptr,
                        serial_seconds[b]);
      const double latency = Now() - t0;
      double ok = 0.0;
      for (const auto& result : batch.results) {
        m.ledger.Add(result.ok() ? OpOutcome::kOk : OpOutcome::kFailed,
                     latency, kFleetBatchLimitS);
        ok += result.ok() ? 1.0 : 0.0;
      }
      m.records.push_back({clock.elapsed() - checking, ok, latency});
      const double c0 = Now();
      const double cpu0 = CpuSeconds();
      if (batch.json != expected[b]) {
        Mismatch(&report, "fleet batch " + std::to_string(b) +
                              " differs from the jobs-1 reference");
      }
      checking += Now() - c0;
      checking_cpu += CpuSeconds() - cpu0;
    }
    clock.StopInto(&m);
    m.wall_s -= checking;
    m.cpu_s -= checking_cpu;
    return m;
  };
  Measured untraced;
  Measured traced;
  MeasurePhases(config, &tracer, measure, &untraced, &traced);
  if (config.trace) {
    const auto sample = IngestSample(inputs.batches.front(), kReplaySample);
    ReplayStages(*setup.pipeline, sample, &tracer);
    ReplayServe(setup.pipeline, sample, config.seed, &tracer, &side);
    ReplayStream(*setup.pipeline, sample, &tracer, &side);
  }
  DOPPLER_RETURN_IF_ERROR(Finalize(config, &report, setup.median_s, tracer,
                                   side, untraced, traced,
                                   "batches of ~200 traces"));
  return report;
}

// --- confidence_month -------------------------------------------------------

struct NoFront {};

// One `assess --confidence --json` invocation after set-up.
StatusOr<AssessmentOutcome> RunConfidenceRequest(const Pipeline& pipeline,
                                                 const TraceFile& file,
                                                 Tracer* tracer,
                                                 std::uint64_t op) {
  ScopedSpan op_span(tracer, "bench.op", op);
  StatusOr<doppler::quality::GatedTrace> gated =
      Ingest(file.path, tracer, op, false);
  if (!gated.ok()) {
    op_span.set_failed(true);
    return gated.status();
  }
  AssessmentRequest request =
      GatedRequest(file.customer_id, std::move(*gated));
  request.compute_confidence = true;
  StatusOr<AssessmentOutcome> outcome =
      tracer != nullptr && tracer->enabled()
          ? AssessByStages(pipeline, request, tracer, op, false)
          : pipeline.Assess(request);
  if (!outcome.ok()) {
    op_span.set_failed(true);
    return outcome;
  }
  // What the CLI prints: the report with its stage seconds.
  RenderOne(*outcome, /*stage_seconds=*/true, tracer, op, false);
  return outcome;
}

StatusOr<RunReport> RunConfidenceMonth(const RunConfig& config) {
  RunReport report;
  DOPPLER_ASSIGN_OR_RETURN(
      const ConfidenceInputs inputs,
      MakeConfidenceInputs(config.seed, config.sizes,
                           config.work_dir + "/confidence"));
  report.notes.push_back("inputs: " + std::to_string(inputs.files.size()) +
                         " 30-day traces; digest " +
                         std::to_string(inputs.digest));
  Tracer tracer(config.trace);
  DOPPLER_ASSIGN_OR_RETURN(
      auto setup, (TimedSetup<NoFront>(&tracer, [](const PipelinePtr&) {
                    return std::make_unique<NoFront>();
                  })));
  DOPPLER_ASSIGN_OR_RETURN(auto reference,
                           ReferencePipeline(*setup.pipeline));
  std::vector<std::string> expected;
  for (const TraceFile& file : inputs.files) {
    StatusOr<AssessmentOutcome> outcome =
        RunConfidenceRequest(*reference, file, nullptr, 0);
    expected.push_back(outcome.ok() ? CheckJson(*outcome)
                                    : outcome.status().ToString());
  }

  auto measure = [&](double seconds, Tracer* t) {
    Measured m;
    const PhaseClock clock;
    double checking = 0.0;
    double checking_cpu = 0.0;
    for (std::uint64_t iter = 0; clock.elapsed() - checking < seconds;
         ++iter) {
      const std::size_t i = iter % inputs.files.size();
      const double t0 = Now();
      StatusOr<AssessmentOutcome> outcome =
          RunConfidenceRequest(*setup.pipeline, inputs.files[i], t, iter);
      const double latency = Now() - t0;
      m.ledger.Add(outcome.ok() ? OpOutcome::kOk : OpOutcome::kFailed,
                   latency, kConfidenceLimitS);
      m.records.push_back({clock.elapsed() - checking,
                           outcome.ok() ? 1.0 : 0.0,
                           outcome.ok() ? latency : -1.0});
      const double c0 = Now();
      const double cpu0 = CpuSeconds();
      if (outcome.ok()) {
        if (t->enabled()) ReplayCurve(*setup.pipeline, *outcome, t, iter);
        if (CheckJson(*outcome) != expected[i]) {
          Mismatch(&report, "confidence report for " +
                                inputs.files[i].customer_id +
                                " differs from the serial reference");
        }
      }
      checking += Now() - c0;
      checking_cpu += CpuSeconds() - cpu0;
    }
    clock.StopInto(&m);
    m.wall_s -= checking;
    m.cpu_s -= checking_cpu;
    return m;
  };
  Measured untraced;
  Measured traced;
  MeasurePhases(config, &tracer, measure, &untraced, &traced);
  LayerSide side;
  if (config.trace) {
    auto sample = IngestSample(inputs.files, inputs.files.size());
    for (AssessmentRequest& request : sample) {
      side.rows_repaired += request.ingest_quality.RepairedDefects();
      request.compute_confidence = true;
    }
    sample.resize(std::min(sample.size(), kReplaySample));
    ReplayExec(*setup.pipeline, *reference, sample, &tracer);
    ReplayServe(setup.pipeline, sample, config.seed, &tracer, &side);
    ReplayStream(*setup.pipeline, sample, &tracer, &side);
  }
  DOPPLER_RETURN_IF_ERROR(Finalize(config, &report, setup.median_s, tracer,
                                   side, untraced, traced, "requests"));
  return report;
}

// --- serve_open -------------------------------------------------------------

StatusOr<RunReport> RunServeOpen(const RunConfig& config) {
  RunReport report;
  DOPPLER_ASSIGN_OR_RETURN(const ServeInputs inputs,
                           MakeServeInputs(config.seed, config.sizes));
  std::vector<AssessmentRequest> pool;
  for (std::size_t i = 0; i < inputs.traces.size(); ++i) {
    pool.push_back(ServeRequest(inputs.customer_ids[i], inputs.traces[i]));
  }
  Tracer tracer(config.trace);
  DOPPLER_ASSIGN_OR_RETURN(
      auto setup, (TimedSetup<ServeFront>(&tracer, [](const PipelinePtr& p) {
                    return std::make_unique<ServeFront>(p);
                  })));
  DOPPLER_ASSIGN_OR_RETURN(auto reference,
                           ReferencePipeline(*setup.pipeline));
  std::vector<std::string> expected;
  for (const AssessmentRequest& request : pool) {
    StatusOr<AssessmentOutcome> outcome = reference->Assess(request);
    expected.push_back(outcome.ok() ? CheckJson(*outcome)
                                    : outcome.status().ToString());
  }

  LayerSide side;
  std::uint64_t phase = 0;
  auto measure = [&](double seconds, Tracer* t) {
    const std::vector<double> due = PoissonSchedule(
        DeriveSeed(config.seed, "phase" + std::to_string(phase++)),
        kServeRate, seconds);
    ServeRun run = DriveService(setup.front->service, pool, due, t, false);
    Measured m;
    m.wall_s = run.wall_s;
    m.cpu_s = run.cpu_s;
    m.open_loop = true;
    for (std::size_t i = 0; i < due.size(); ++i) {
      m.ledger.Add(run.outcomes[i], run.latency[i], kServeLimitS);
      const bool ok = run.outcomes[i] == OpOutcome::kOk;
      m.records.push_back({due[i] + std::max(run.latency[i], 0.0),
                           ok ? 1.0 : 0.0, ok ? run.latency[i] : -1.0});
      if (ok) {
        const std::size_t k = i % pool.size();
        if (CheckJson(*run.responses[i]->outcome) != expected[k]) {
          Mismatch(&report, "served report for " + pool[k].customer_id +
                                " differs from the serial reference");
        }
      }
    }
    report.notes.push_back(
        "serve phase: " + std::to_string(due.size()) + " requests at " +
        Fixed(kServeRate, 0) + "/s; shed " + std::to_string(run.stats.shed) +
        ", degraded " + std::to_string(run.stats.degraded) + ", expired " +
        std::to_string(run.stats.expired) + "; generator lateness p95 " +
        Fixed(run.stats.late_p95_s * 1e3, 3) + " ms, p99 " +
        Fixed(run.stats.late_p99_s * 1e3, 3) + " ms");
    if (run.stats.late_p99_s > kMaxGeneratorLateP99S) {
      report.valid = false;
      report.notes.push_back("INVALID: the load generator fell behind its "
                             "schedule");
    }
    if (t->enabled()) side.serve = run.stats;
    return m;
  };
  Measured untraced;
  Measured traced;
  MeasurePhases(config, &tracer, measure, &untraced, &traced);
  if (config.trace) {
    const std::vector<AssessmentRequest> sample(
        pool.begin(), pool.begin() + std::min(pool.size(), kReplaySample));
    ReplayIngest(sample, config.work_dir + "/serve", &tracer, &side);
    ReplayStages(*setup.pipeline, sample, &tracer);
    ReplayExec(*setup.pipeline, *reference, sample, &tracer);
    ReplayStream(*setup.pipeline, sample, &tracer, &side);
  }
  DOPPLER_RETURN_IF_ERROR(Finalize(config, &report, setup.median_s, tracer,
                                   side, untraced, traced,
                                   "requests, timed from due time"));
  return report;
}

// --- monitor_drift ----------------------------------------------------------

StatusOr<RunReport> RunMonitorDrift(const RunConfig& config) {
  RunReport report;
  DOPPLER_ASSIGN_OR_RETURN(const MonitorInputs inputs,
                           MakeMonitorInputs(config.seed, config.sizes));
  report.notes.push_back(
      "inputs: " + std::to_string(inputs.customer_ids.size()) +
      " customers x " + std::to_string(config.sizes.monitor_days) +
      " daily batches, " + std::to_string(inputs.drifting_customers) +
      " drifting; digest " + std::to_string(inputs.digest));
  Tracer tracer(config.trace);
  DOPPLER_ASSIGN_OR_RETURN(
      auto setup,
      (TimedSetup<doppler::stream::StreamMonitor>(
          &tracer, [](const PipelinePtr& p) {
            return std::make_unique<doppler::stream::StreamMonitor>(
                p.get(), MonitorOptions());
          })));
  DOPPLER_ASSIGN_OR_RETURN(auto reference,
                           ReferencePipeline(*setup.pipeline));
  constexpr std::size_t kSampleEvery = 7;

  // The first pass runs on the monitor set-up built; every later pass
  // replays the same tick sequence on a fresh monitor, so each pass does
  // identical work. Its sampled ticks are checked against the first pass,
  // and the first pass against AssessStages on the serial reference.
  std::vector<MonitorSample> first;
  LayerSide side;
  bool have_first = false;
  auto measure = [&](double seconds, Tracer* t) {
    Measured m;
    const PhaseClock clock;
    while (clock.elapsed() < seconds) {
      std::unique_ptr<doppler::stream::StreamMonitor> fresh;
      doppler::stream::StreamMonitor* monitor = setup.front.get();
      if (have_first) {
        fresh = std::make_unique<doppler::stream::StreamMonitor>(
            setup.pipeline.get(), MonitorOptions());
        monitor = fresh.get();
      }
      StreamRun run =
          DriveMonitor(*monitor, inputs.customer_ids, inputs.batches, t,
                       false, kSampleEvery, /*keep_windows=*/!have_first);
      for (std::size_t i = 0; i < run.latencies.size(); ++i) {
        m.ledger.Add(run.outcomes[i], run.latencies[i], kMonitorLimitS);
        const bool ok = run.outcomes[i] == OpOutcome::kOk;
        m.records.push_back({run.ends[i] - clock.start(), ok ? 1.0 : 0.0,
                             ok ? run.latencies[i] : -1.0});
      }
      if (!have_first) {
        first = std::move(run.samples);
        side.stream = run.stats;
        have_first = true;
        continue;
      }
      if (run.samples.size() != first.size()) {
        Mismatch(&report, "monitor pass assessed a different tick set");
        continue;
      }
      for (std::size_t s = 0; s < first.size(); ++s) {
        const MonitorSample& a = first[s];
        const MonitorSample& b = run.samples[s];
        if (a.tick != b.tick || a.sku != b.sku ||
            a.monthly_cost != b.monthly_cost || a.throttling != b.throttling) {
          Mismatch(&report, "monitor tick " + std::to_string(b.tick) +
                                " differs between passes");
        }
      }
    }
    clock.StopInto(&m);
    return m;
  };
  Measured untraced;
  Measured traced;
  MeasurePhases(config, &tracer, measure, &untraced, &traced);

  // Stream differential check: the monitor's incremental answer on a tick
  // must equal a from-scratch AssessStages over the window it held.
  std::vector<AssessmentRequest> sample;
  for (const MonitorSample& s : first) {
    AssessmentRequest request;
    request.customer_id = s.customer_id;
    request.database_traces = {s.window};
    request.current_sku_id = kCurrentSku;
    StatusOr<AssessmentOutcome> outcome =
        reference->AssessStages(request, s.mask);
    if (!outcome.ok() || outcome->elastic.sku.id != s.sku ||
        outcome->elastic.monthly_cost != s.monthly_cost ||
        outcome->elastic.throttling_probability != s.throttling) {
      Mismatch(&report, "monitor tick " + std::to_string(s.tick) +
                            " differs from AssessStages on its window");
    }
    if (sample.size() < kReplaySample) sample.push_back(std::move(request));
  }
  report.notes.push_back("monitor check: " + std::to_string(first.size()) +
                         " sampled assessed ticks; " +
                         std::to_string(side.stream.assessed) + " of " +
                         std::to_string(side.stream.ticks) +
                         " ticks per pass assessed");
  if (config.trace) {
    ReplayIngest(sample, config.work_dir + "/monitor", &tracer, &side);
    ReplayStages(*setup.pipeline, sample, &tracer);
    ReplayExec(*setup.pipeline, *reference, sample, &tracer);
    ReplayServe(setup.pipeline, sample, config.seed, &tracer, &side);
  }
  DOPPLER_RETURN_IF_ERROR(Finalize(config, &report, setup.median_s, tracer,
                                   side, untraced, traced, "ticks"));
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "fleet_week", "confidence_month", "serve_open", "monitor_drift"};
  return kNames;
}

StatusOr<RunReport> RunWorkload(const RunConfig& config) {
  if (config.workload == "fleet_week") return RunFleetWeek(config);
  if (config.workload == "confidence_month") return RunConfidenceMonth(config);
  if (config.workload == "serve_open") return RunServeOpen(config);
  if (config.workload == "monitor_drift") return RunMonitorDrift(config);
  return doppler::InvalidArgumentError("unknown workload '" + config.workload +
                                       "'");
}

}  // namespace perfbench
