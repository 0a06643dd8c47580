#include "sim/fault_injector.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "telemetry/perf_trace.h"
#include "util/string_util.h"
#include "workload/generator.h"

namespace doppler::sim {

namespace {

/// Picks the column a spec targets: the named one, or a random non-time
/// column. Returns the column index.
StatusOr<std::size_t> TargetColumn(const CsvTable& table,
                                   const FaultSpec& spec, Rng* rng) {
  if (!spec.column.empty()) {
    return table.ColumnIndex(spec.column);
  }
  std::vector<std::size_t> candidates;
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    if (table.header()[c] != "t_seconds") candidates.push_back(c);
  }
  if (candidates.empty()) {
    return InvalidArgumentError("no non-time column to corrupt");
  }
  return candidates[rng->UniformInt(candidates.size())];
}

/// Number of rows a fractional magnitude touches — at least one.
std::size_t TouchedRows(const CsvTable& table, double magnitude) {
  const double frac = std::clamp(magnitude, 0.0, 1.0);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             frac * static_cast<double>(table.num_rows()))));
}

CsvTable CopyHeader(const CsvTable& table) {
  return CsvTable(table.header());
}

/// An owned copy of data row `r`, for rewriting before AddRow.
std::vector<std::string> CopyRow(const CsvTable& table, std::size_t r) {
  const std::span<const std::string> row = table.row(r);
  return {row.begin(), row.end()};
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropWindow:
      return "drop_window";
    case FaultKind::kJitter:
      return "jitter";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kOutOfOrder:
      return "out_of_order";
    case FaultKind::kNanBurst:
      return "nan_burst";
    case FaultKind::kNegativeSpike:
      return "negative_spike";
    case FaultKind::kColumnDrop:
      return "column_drop";
    case FaultKind::kZeroDead:
      return "zero_dead";
    case FaultKind::kByteCorrupt:
      return "byte_corrupt";
  }
  return "unknown";
}

StatusOr<CsvTable> InjectFault(const CsvTable& table, const FaultSpec& spec,
                               Rng* rng) {
  if (rng == nullptr) {
    return InvalidArgumentError("fault injection needs an Rng");
  }
  if (table.num_rows() == 0) {
    return InvalidArgumentError("cannot corrupt an empty table");
  }

  switch (spec.kind) {
    case FaultKind::kDropWindow: {
      const std::size_t len =
          std::min(TouchedRows(table, spec.magnitude), table.num_rows() - 1);
      const std::size_t start = rng->UniformInt(table.num_rows() - len + 1);
      CsvTable out = CopyHeader(table);
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        if (r >= start && r < start + len) continue;
        (void)out.AddRow(CopyRow(table, r));
      }
      return out;
    }

    case FaultKind::kJitter: {
      DOPPLER_ASSIGN_OR_RETURN(std::size_t time_col,
                               table.ColumnIndex("t_seconds"));
      CsvTable out = CopyHeader(table);
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        std::vector<std::string> row = CopyRow(table, r);
        char* end = nullptr;
        const double t = std::strtod(row[time_col].c_str(), &end);
        // Wobble by up to +/- magnitude of the nominal 10-minute cadence.
        const double wobble = rng->Uniform(-spec.magnitude, spec.magnitude) *
                              telemetry::kDmaIntervalSeconds;
        row[time_col] = FormatDouble(t + wobble, 1);
        (void)out.AddRow(std::move(row));
      }
      return out;
    }

    case FaultKind::kDuplicate: {
      const std::size_t copies = TouchedRows(table, spec.magnitude);
      CsvTable out = CopyHeader(table);
      // Choose rows to duplicate up front so the pass stays one sweep.
      std::vector<int> extra(table.num_rows(), 0);
      for (std::size_t i = 0; i < copies; ++i) {
        ++extra[rng->UniformInt(table.num_rows())];
      }
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        (void)out.AddRow(CopyRow(table, r));
        for (int k = 0; k < extra[r]; ++k) (void)out.AddRow(CopyRow(table, r));
      }
      return out;
    }

    case FaultKind::kOutOfOrder: {
      const std::size_t swaps = TouchedRows(table, spec.magnitude);
      std::vector<std::vector<std::string>> rows;
      rows.reserve(table.num_rows());
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        rows.push_back(CopyRow(table, r));
      }
      for (std::size_t i = 0; i < swaps && rows.size() >= 2; ++i) {
        const std::size_t a = rng->UniformInt(rows.size());
        const std::size_t b = rng->UniformInt(rows.size());
        std::swap(rows[a], rows[b]);
      }
      CsvTable out = CopyHeader(table);
      for (auto& row : rows) (void)out.AddRow(std::move(row));
      return out;
    }

    case FaultKind::kNanBurst: {
      DOPPLER_ASSIGN_OR_RETURN(std::size_t col, TargetColumn(table, spec, rng));
      const std::size_t len =
          std::min(TouchedRows(table, spec.magnitude), table.num_rows());
      const std::size_t start = rng->UniformInt(table.num_rows() - len + 1);
      CsvTable out = CopyHeader(table);
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        std::vector<std::string> row = CopyRow(table, r);
        if (r >= start && r < start + len) row[col] = "nan";
        (void)out.AddRow(std::move(row));
      }
      return out;
    }

    case FaultKind::kNegativeSpike: {
      DOPPLER_ASSIGN_OR_RETURN(std::size_t col, TargetColumn(table, spec, rng));
      const std::size_t hits = TouchedRows(table, spec.magnitude);
      std::vector<bool> hit(table.num_rows(), false);
      for (std::size_t i = 0; i < hits; ++i) {
        hit[rng->UniformInt(table.num_rows())] = true;
      }
      CsvTable out = CopyHeader(table);
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        std::vector<std::string> row = CopyRow(table, r);
        if (hit[r]) row[col] = "-" + row[col];
        (void)out.AddRow(std::move(row));
      }
      return out;
    }

    case FaultKind::kColumnDrop: {
      DOPPLER_ASSIGN_OR_RETURN(std::size_t col, TargetColumn(table, spec, rng));
      std::vector<std::string> header;
      for (std::size_t c = 0; c < table.num_columns(); ++c) {
        if (c != col) header.push_back(table.header()[c]);
      }
      CsvTable out((std::vector<std::string>(header)));
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        std::vector<std::string> row;
        row.reserve(header.size());
        for (std::size_t c = 0; c < table.num_columns(); ++c) {
          if (c != col) row.push_back(table.row(r)[c]);
        }
        (void)out.AddRow(std::move(row));
      }
      return out;
    }

    case FaultKind::kZeroDead: {
      DOPPLER_ASSIGN_OR_RETURN(std::size_t col, TargetColumn(table, spec, rng));
      CsvTable out = CopyHeader(table);
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        std::vector<std::string> row = CopyRow(table, r);
        row[col].assign(1, '0');
        (void)out.AddRow(std::move(row));
      }
      return out;
    }

    case FaultKind::kByteCorrupt: {
      DOPPLER_ASSIGN_OR_RETURN(std::size_t col, TargetColumn(table, spec, rng));
      const std::size_t hits = TouchedRows(table, spec.magnitude);
      std::vector<bool> hit(table.num_rows(), false);
      for (std::size_t i = 0; i < hits; ++i) {
        hit[rng->UniformInt(table.num_rows())] = true;
      }
      CsvTable out = CopyHeader(table);
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        std::vector<std::string> row = CopyRow(table, r);
        if (hit[r]) {
          // Overwrite the cell with garbage printable bytes.
          std::string garbage;
          const std::size_t len = 1 + rng->UniformInt(6);
          for (std::size_t k = 0; k < len; ++k) {
            garbage.push_back(
                static_cast<char>('!' + rng->UniformInt('~' - '!' + 1)));
          }
          row[col] = garbage;
        }
        (void)out.AddRow(std::move(row));
      }
      return out;
    }
  }
  return InvalidArgumentError("unknown fault kind");
}

StatusOr<CsvTable> ApplyFaults(const CsvTable& table,
                               const std::vector<FaultSpec>& specs, Rng* rng) {
  CsvTable current = table;
  for (const FaultSpec& spec : specs) {
    DOPPLER_ASSIGN_OR_RETURN(current, InjectFault(current, spec, rng));
  }
  return current;
}

namespace {

/// FNV-1a over the key bytes folded with splitmix64 — a stable, portable
/// hash for fault decisions (std::hash would tie injection sites to the
/// standard library build).
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t HashKey(std::uint64_t seed, const std::string& key,
                      const char* salt) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (const char* p = salt; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
  }
  for (char c : key) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return SplitMix64(h);
}

/// Maps a hash to [0, 1) with 53 bits of the mantissa.
double UnitFromHash(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

TransientIoPlan::TransientIoPlan(std::uint64_t seed, double fail_fraction,
                                 int max_failures)
    : seed_(seed),
      fail_fraction_(std::clamp(fail_fraction, 0.0, 1.0)),
      max_failures_(std::max(0, max_failures)) {}

int TransientIoPlan::FailuresFor(const std::string& key) const {
  if (max_failures_ == 0) return 0;
  const std::uint64_t pick = HashKey(seed_, key, "io.pick");
  if (UnitFromHash(pick) >= fail_fraction_) return 0;
  const std::uint64_t count = HashKey(seed_, key, "io.count");
  return 1 + static_cast<int>(count %
                              static_cast<std::uint64_t>(max_failures_));
}

std::function<Status(const std::string&, int)> TransientIoPlan::Hook() const {
  // Copy the plan into the closure: the hook outlives no one, the plan is
  // three words.
  TransientIoPlan plan = *this;
  return [plan](const std::string& path, int attempt) -> Status {
    if (plan.ShouldFail(path, attempt)) {
      return UnavailableError("injected transient I/O fault on '" + path +
                              "' (attempt " + std::to_string(attempt) + ")");
    }
    return OkStatus();
  };
}

StageLatencyPlan::StageLatencyPlan(std::uint64_t seed, double delay_fraction,
                                   double max_delay_seconds)
    : seed_(seed),
      delay_fraction_(std::clamp(delay_fraction, 0.0, 1.0)),
      max_delay_seconds_(std::max(0.0, max_delay_seconds)) {}

double StageLatencyPlan::DelaySeconds(const std::string& key,
                                      const char* stage) const {
  if (max_delay_seconds_ <= 0.0) return 0.0;
  const std::string site = key + "|" + stage;
  if (UnitFromHash(HashKey(seed_, site, "lat.pick")) >= delay_fraction_) {
    return 0.0;
  }
  return UnitFromHash(HashKey(seed_, site, "lat.len")) * max_delay_seconds_;
}

std::function<void(const char*)> StageLatencyPlan::HookFor(
    std::string key) const {
  StageLatencyPlan plan = *this;
  return [plan, key = std::move(key)](const char* stage) {
    const double delay = plan.DelaySeconds(key, stage);
    if (delay > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  };
}

DriftPlan::DriftPlan(std::uint64_t seed, double drift_fraction,
                     double max_factor, std::size_t horizon_rows)
    : seed_(seed),
      drift_fraction_(std::clamp(drift_fraction, 0.0, 1.0)),
      max_factor_(std::max(1.0, max_factor)),
      horizon_rows_(std::max<std::size_t>(4, horizon_rows)) {}

DriftPlan::Ramp DriftPlan::RampFor(
    const std::string& key,
    const std::vector<catalog::ResourceDim>& dims) const {
  Ramp ramp;
  if (dims.empty()) return ramp;
  if (UnitFromHash(HashKey(seed_, key, "drift.pick")) >= drift_fraction_) {
    return ramp;
  }
  ramp.active = true;
  ramp.dim = dims[HashKey(seed_, key, "drift.dim") % dims.size()];
  // Middle half of the horizon: late enough that the monitor has a
  // baseline, early enough that ramped rows dominate the tail.
  const std::size_t span = horizon_rows_ / 2;
  ramp.start_row =
      horizon_rows_ / 4 + HashKey(seed_, key, "drift.row") % span;
  ramp.factor = 1.0 + UnitFromHash(HashKey(seed_, key, "drift.len")) *
                          (max_factor_ - 1.0);
  return ramp;
}

Status DriftPlan::ApplyTo(const std::string& key,
                          telemetry::PerfTrace* trace) const {
  if (trace == nullptr) {
    return InvalidArgumentError("DriftPlan::ApplyTo requires a trace");
  }
  const Ramp ramp = RampFor(key, trace->PresentDims());
  if (!ramp.active) return OkStatus();
  return workload::RampDimension(trace, ramp.dim, ramp.start_row,
                                 ramp.factor);
}

std::string CorruptBytes(const std::string& text, int num_flips, Rng* rng) {
  std::string out = text;
  if (out.empty() || rng == nullptr) return out;
  for (int i = 0; i < num_flips; ++i) {
    const std::size_t pos = rng->UniformInt(out.size());
    // Printable garbage plus the two structural characters, so corruption
    // can also shear rows and fields apart.
    constexpr char kAlphabet[] = "0123456789abcxyz!@#$%^&*,\n";
    out[pos] = kAlphabet[rng->UniformInt(sizeof(kAlphabet) - 1)];
  }
  return out;
}

}  // namespace doppler::sim
