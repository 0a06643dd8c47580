#include "sources/counter_mapping.h"

#include <cmath>
#include <map>

#include "util/string_util.h"

namespace doppler::sources {

namespace {

// Foreign exports carry physical counters, so a cell must be a finite
// number; "nan"/"inf" parse under ParseDouble and are rejected here.
StatusOr<double> ParseNumber(const std::string& text, const std::string& where) {
  double value = 0.0;
  if (!ParseDouble(text, &value)) {
    return InvalidArgumentError("not a number at " + where + ": '" + text +
                                "'");
  }
  if (!std::isfinite(value)) {
    return InvalidArgumentError("non-finite value at " + where + ": '" + text +
                                "'");
  }
  return value;
}

std::string CellContext(const std::string& source, std::size_t row,
                        const std::string& column) {
  return source + " data row " + std::to_string(row + 1) + ", column '" +
         column + "'";
}

}  // namespace

StatusOr<telemetry::PerfTrace> TraceFromForeignCsv(
    const CsvTable& table, const CounterMapping& mapping) {
  if (mapping.rules.empty()) {
    return InvalidArgumentError("counter mapping has no rules");
  }
  DOPPLER_ASSIGN_OR_RETURN(std::size_t time_col,
                           table.ColumnIndex(mapping.time_column));
  if (table.num_rows() == 0) {
    return InvalidArgumentError(mapping.source_name + " export is empty");
  }

  // Every timestamp must increase (DMA default cadence for single-row
  // exports; otherwise the first delta).
  std::int64_t interval = telemetry::kDmaIntervalSeconds;
  double previous_t = 0.0;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    DOPPLER_ASSIGN_OR_RETURN(
        double t,
        ParseNumber(table.row(r)[time_col],
                    CellContext(mapping.source_name, r, mapping.time_column)));
    if (r > 0 && t <= previous_t) {
      return InvalidArgumentError(
          mapping.source_name + ": timestamps must increase (violated at " +
          CellContext(mapping.source_name, r, mapping.time_column) + ")");
    }
    if (r == 1) interval = static_cast<std::int64_t>(t - previous_t);
    previous_t = t;
  }

  // Accumulate rule columns into per-dimension series.
  std::map<catalog::ResourceDim, std::vector<double>> series;
  for (const CounterRule& rule : mapping.rules) {
    DOPPLER_ASSIGN_OR_RETURN(std::size_t column,
                             table.ColumnIndex(rule.column));
    auto& values = series[rule.dim];
    if (values.empty()) values.assign(table.num_rows(), 0.0);
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      DOPPLER_ASSIGN_OR_RETURN(
          double v, ParseNumber(table.row(r)[column],
                                CellContext(mapping.source_name, r,
                                            rule.column)));
      if (v < 0.0) {
        return InvalidArgumentError(
            "negative counter at " +
            CellContext(mapping.source_name, r, rule.column));
      }
      values[r] += v * rule.unit_scale;
    }
  }

  telemetry::PerfTrace trace(interval);
  trace.set_id(mapping.source_name);
  for (auto& [dim, values] : series) {
    DOPPLER_RETURN_IF_ERROR(trace.SetSeries(dim, std::move(values)));
  }
  return trace;
}

}  // namespace doppler::sources
