#include "stream/monitor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.h"
#include "util/json_writer.h"

namespace doppler::stream {

namespace {

using catalog::ResourceDim;

obs::Counter* CounterNamed(const char* name) {
  return obs::DefaultMetrics().GetCounter(name);
}

/// The seven pipeline stages in canonical order (for mask rendering and
/// per-stage counters).
constexpr dma::Stage kStageOrder[] = {
    dma::kStagePreprocess, dma::kStageQuality,    dma::kStageLayout,
    dma::kStageRecommend,  dma::kStageBaseline,   dma::kStageConfidence,
    dma::kStageRightsizing,
};

}  // namespace

CustomerWindow::CustomerWindow(std::string customer_id,
                               const std::vector<ResourceDim>& dims,
                               const MonitorOptions& options)
    : customer_id_(std::move(customer_id)),
      trace_(dims, options.window_rows) {
  trace_.set_id(customer_id_);
}

StatusOr<CustomerWindow::BatchResult> CustomerWindow::Append(
    const telemetry::PerfTrace& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (ResourceDim dim : trace_.dims()) {
    if (!batch.Has(dim)) {
      return InvalidArgumentError(
          "batch for '" + customer_id_ + "' lacks window dimension '" +
          std::string(catalog::ResourceDimName(dim)) + "'");
    }
  }
  BatchResult result;
  std::vector<double> row(trace_.dims().size());
  for (std::size_t r = 0; r < batch.num_samples(); ++r) {
    if (trace_.full()) {
      (void)trace_.PopFront();
      ++result.evicted;
    }
    for (std::size_t k = 0; k < trace_.dims().size(); ++k) {
      row[k] = batch.Values(trace_.dims()[k])[r];
    }
    DOPPLER_RETURN_IF_ERROR(trace_.Append(row).status());
    ++total_rows_;
    ++result.appended;
  }
  return result;
}

std::size_t CustomerWindow::resident_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_.size();
}

std::uint64_t CustomerWindow::total_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_rows_;
}

telemetry::PerfTrace CustomerWindow::MaterializeTrace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_.Materialize();
}

double CustomerWindow::WindowMean(ResourceDim dim) const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_.Mean(dim);
}

bool CustomerWindow::assessed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return assessed_;
}

void CustomerWindow::MarkAssessed() {
  std::lock_guard<std::mutex> lock(mu_);
  assessed_ = true;
  for (ResourceDim dim : trace_.dims()) {
    baseline_means_[Index(dim)] = trace_.Mean(dim);
  }
}

std::vector<ResourceDim> CustomerWindow::DriftedDims(double tolerance,
                                                     double floor) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ResourceDim> drifted;
  if (!assessed_) return drifted;
  for (ResourceDim dim : trace_.dims()) {
    const double baseline = baseline_means_[Index(dim)];
    const double current = trace_.Mean(dim);
    const double scale = std::max(std::fabs(baseline), floor);
    if (std::fabs(current - baseline) > tolerance * scale) {
      drifted.push_back(dim);
    }
  }
  return drifted;
}

StreamMonitor::StreamMonitor(const dma::SkuRecommendationPipeline* pipeline,
                             MonitorOptions options)
    : pipeline_(pipeline), options_(std::move(options)) {}

StatusOr<CustomerWindow*> StreamMonitor::WindowFor(
    const std::string& customer_id, const telemetry::PerfTrace& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = windows_.find(customer_id);
  if (it == windows_.end()) {
    const std::vector<ResourceDim> dims = batch.PresentDims();
    if (dims.empty()) {
      return InvalidArgumentError("first batch for '" + customer_id +
                                  "' carries no dimensions");
    }
    it = windows_
             .emplace(customer_id, std::make_unique<CustomerWindow>(
                                       customer_id, dims, options_))
             .first;
    obs::DefaultMetrics()
        .GetGauge("stream.customers")
        ->Set(static_cast<double>(windows_.size()));
  }
  return it->second.get();
}

StatusOr<MonitorEvent> StreamMonitor::Ingest(
    const std::string& customer_id, const telemetry::PerfTrace& batch) {
  static obs::Counter* const kBatches = CounterNamed("stream.batches");
  static obs::Counter* const kAppended = CounterNamed("stream.appended");
  static obs::Counter* const kEvicted = CounterNamed("stream.evicted");
  static obs::Counter* const kDriftTrips = CounterNamed("stream.drift_trips");
  static obs::Counter* const kReassessments =
      CounterNamed("stream.reassessments");
  static obs::Counter* const kInitial =
      CounterNamed("stream.initial_assessments");

  DOPPLER_ASSIGN_OR_RETURN(CustomerWindow * window,
                           WindowFor(customer_id, batch));
  DOPPLER_ASSIGN_OR_RETURN(const CustomerWindow::BatchResult appended,
                           window->Append(batch));
  kBatches->Increment();
  kAppended->Increment(appended.appended);
  kEvicted->Increment(appended.evicted);

  MonitorEvent event;
  event.customer_id = customer_id;
  event.appended = appended.appended;
  event.evicted = appended.evicted;
  event.resident = window->resident_rows();
  {
    std::lock_guard<std::mutex> lock(mu_);
    double resident = 0.0;
    for (const auto& [id, w] : windows_) {
      resident += static_cast<double>(w->resident_rows());
    }
    obs::DefaultMetrics().GetGauge("stream.resident_rows")->Set(resident);
  }

  // Assessment policy: one initial full-minus-confidence assessment once
  // the window is deep enough, then drift-gated re-assessment of only the
  // stages the shifted demand can change.
  const bool initial =
      !window->assessed() && event.resident >= options_.min_assess_rows;
  if (!initial) {
    event.drifted_dims =
        window->DriftedDims(options_.drift_tolerance, options_.drift_floor);
    if (event.drifted_dims.empty()) return event;
    kDriftTrips->Increment(event.drifted_dims.size());
  }

  dma::StageMask mask = dma::kStagePreprocess | dma::kStageQuality |
                        dma::kStageLayout | dma::kStageRecommend;
  if (initial) mask |= dma::kStageBaseline;
  if (!options_.current_sku_id.empty()) mask |= dma::kStageRightsizing;

  dma::AssessmentRequest request;
  request.customer_id = customer_id;
  request.target = options_.target;
  request.database_traces.push_back(window->MaterializeTrace());
  request.current_sku_id = options_.current_sku_id;
  request.compute_confidence = false;
  DOPPLER_ASSIGN_OR_RETURN(dma::AssessmentOutcome outcome,
                           pipeline_->AssessStages(request, mask));

  event.assessed = true;
  event.initial = initial;
  event.stage_mask = mask;
  event.completed_stages = outcome.completed_stages;
  event.elastic_sku_id = outcome.elastic.sku.id;
  event.elastic_monthly_cost = outcome.elastic.monthly_cost;
  event.elastic_throttling_probability =
      outcome.elastic.throttling_probability;
  (initial ? kInitial : kReassessments)->Increment();
  // Per-stage run counters are the observable proof that a drift tick ran
  // ONLY the affected stages (no baseline/confidence riding along).
  for (dma::Stage stage : kStageOrder) {
    if (!(outcome.completed_stages & stage)) continue;
    obs::DefaultMetrics()
        .GetCounter(std::string("stream.stage_runs.") +
                    dma::StageName(stage))
        ->Increment();
  }
  window->MarkAssessed();

  if (!initial && !options_.current_sku_id.empty()) {
    // Best effort: the detector needs enough rows to split windows; a
    // short trace is not a monitoring failure.
    StatusOr<core::DriftReport> report = core::DetectSkuDrift(
        request.database_traces.front(),
        pipeline_->compiled().ForDeployment(options_.target).view(), pricing_,
        estimator_, options_.current_sku_id, options_.sku_drift);
    if (report.ok()) event.sku_drift = std::move(*report);
  }
  return event;
}

std::size_t StreamMonitor::num_customers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_.size();
}

const CustomerWindow* StreamMonitor::window(
    const std::string& customer_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = windows_.find(customer_id);
  return it == windows_.end() ? nullptr : it->second.get();
}

std::string RenderMonitorEventJson(const MonitorEvent& event) {
  JsonWriter json;
  json.BeginObject();
  json.Key("customer_id").String(event.customer_id);
  json.Key("appended").Int(static_cast<long long>(event.appended));
  json.Key("evicted").Int(static_cast<long long>(event.evicted));
  json.Key("resident").Int(static_cast<long long>(event.resident));
  json.Key("drifted_dims").BeginArray();
  for (ResourceDim dim : event.drifted_dims) {
    json.String(catalog::ResourceDimName(dim));
  }
  json.EndArray();
  json.Key("assessed").Bool(event.assessed);
  if (event.assessed) {
    json.Key("initial").Bool(event.initial);
    json.Key("stages").BeginArray();
    for (dma::Stage stage : kStageOrder) {
      if (event.completed_stages & stage) {
        json.String(dma::StageName(stage));
      }
    }
    json.EndArray();
    json.Key("sku").String(event.elastic_sku_id);
    json.Key("monthly_cost").Number(event.elastic_monthly_cost);
    json.Key("throttling_probability")
        .Number(event.elastic_throttling_probability);
  }
  if (event.sku_drift.has_value()) {
    json.Key("sku_drift").BeginObject();
    json.Key("baseline_probability")
        .Number(event.sku_drift->baseline_probability);
    json.Key("recent_probability")
        .Number(event.sku_drift->recent_probability);
    json.Key("needs_change").Bool(event.sku_drift->needs_change);
    if (!event.sku_drift->recommended_sku_id.empty()) {
      json.Key("recommended_sku").String(event.sku_drift->recommended_sku_id);
    }
    json.EndObject();
  }
  json.EndObject();
  return json.str();
}

std::string RenderMonitorEventText(const MonitorEvent& event) {
  std::ostringstream out;
  out << event.customer_id << ": +" << event.appended << " rows ("
      << event.resident << " resident, " << event.evicted << " evicted)";
  if (!event.drifted_dims.empty()) {
    out << " drift[";
    for (std::size_t i = 0; i < event.drifted_dims.size(); ++i) {
      if (i != 0) out << ",";
      out << catalog::ResourceDimName(event.drifted_dims[i]);
    }
    out << "]";
  }
  if (event.assessed) {
    out << (event.initial ? " assessed" : " re-assessed") << " -> "
        << event.elastic_sku_id;
  }
  if (event.sku_drift.has_value() && event.sku_drift->needs_change) {
    out << " (SKU change: " << event.sku_drift->recommended_sku_id << ")";
  }
  out << "\n";
  return out.str();
}

}  // namespace doppler::stream
