#include "telemetry/trace_io.h"

#include <cmath>

#include "util/string_util.h"

namespace doppler::telemetry {

CsvTable TraceToCsv(const PerfTrace& trace) {
  const std::vector<catalog::ResourceDim> dims = trace.PresentDims();
  std::vector<std::string> header = {"t_seconds"};
  for (catalog::ResourceDim dim : dims) {
    header.emplace_back(catalog::ResourceDimName(dim));
  }
  CsvTable table(std::move(header));
  for (std::size_t i = 0; i < trace.num_samples(); ++i) {
    std::vector<std::string> row;
    row.reserve(dims.size() + 1);
    row.push_back(std::to_string(
        static_cast<std::int64_t>(i) * trace.interval_seconds()));
    for (catalog::ResourceDim dim : dims) {
      row.push_back(FormatDouble(trace.Values(dim)[i], 6));
    }
    (void)table.AddRow(std::move(row));  // Width always matches the header.
  }
  return table;
}

namespace {

// `ParseDouble` happily parses "nan" and "inf", so finiteness is checked
// here rather than in the parse itself; `context` names the offending cell.
StatusOr<double> ParseNumber(const std::string& text,
                             const std::string& context) {
  double value = 0.0;
  if (!ParseDouble(text, &value)) {
    return InvalidArgumentError("not a number at " + context + ": '" + text +
                                "'");
  }
  if (!std::isfinite(value)) {
    return InvalidArgumentError("non-finite value at " + context + ": '" +
                                text + "'");
  }
  return value;
}

std::string CellContext(std::size_t row, const std::string& column) {
  return "data row " + std::to_string(row + 1) + ", column '" + column + "'";
}

}  // namespace

StatusOr<PerfTrace> TraceFromCsv(const CsvTable& table) {
  DOPPLER_ASSIGN_OR_RETURN(std::size_t time_col, table.ColumnIndex("t_seconds"));

  // Every timestamp must be finite and strictly increasing; the cadence is
  // the first delta.
  std::int64_t interval = kDmaIntervalSeconds;
  double previous_t = 0.0;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    DOPPLER_ASSIGN_OR_RETURN(
        double t, ParseNumber(table.row(r)[time_col],
                              CellContext(r, "t_seconds")));
    if (r > 0 && t <= previous_t) {
      return InvalidArgumentError(
          "t_seconds must be strictly increasing (violated at " +
          CellContext(r, "t_seconds") + ")");
    }
    if (r == 1) {
      const auto delta = static_cast<std::int64_t>(t - previous_t);
      if (delta <= 0) {
        return InvalidArgumentError("t_seconds must be strictly increasing");
      }
      interval = delta;
    }
    previous_t = t;
  }

  PerfTrace trace(interval);
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    if (c == time_col) continue;
    catalog::ResourceDim dim;
    if (!catalog::ParseResourceDim(table.header()[c], &dim)) continue;
    if (trace.Has(dim)) {
      return InvalidArgumentError("duplicate column '" + table.header()[c] +
                                  "'");
    }
    std::vector<double> values;
    values.reserve(table.num_rows());
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      DOPPLER_ASSIGN_OR_RETURN(
          double v,
          ParseNumber(table.row(r)[c], CellContext(r, table.header()[c])));
      values.push_back(v);
    }
    DOPPLER_RETURN_IF_ERROR(trace.SetSeries(dim, std::move(values)));
  }
  if (trace.PresentDims().empty()) {
    return InvalidArgumentError("CSV contains no known resource columns");
  }
  return trace;
}

Status WriteTraceFile(const PerfTrace& trace, const std::string& path) {
  return TraceToCsv(trace).WriteFile(path);
}

StatusOr<PerfTrace> ReadTraceFile(const std::string& path) {
  DOPPLER_ASSIGN_OR_RETURN(CsvTable table, CsvTable::ReadFile(path));
  return TraceFromCsv(table);
}

}  // namespace doppler::telemetry
