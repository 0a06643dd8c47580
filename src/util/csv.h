#ifndef DOPPLER_UTIL_CSV_H_
#define DOPPLER_UTIL_CSV_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace doppler {

/// In-memory CSV document: a header row plus data rows of equal width.
/// Used for persisting perf traces, assessment results and experiment
/// outputs; the format is plain RFC-4180 minus quoting (fields in this
/// library never contain commas or newlines). Cells are stored row-major
/// in one flat vector.
class CsvTable {
 public:
  CsvTable() = default;

  /// Creates a table with the given column names.
  explicit CsvTable(std::vector<std::string> header);

  /// Column names.
  const std::vector<std::string>& header() const { return header_; }

  /// Appends a row; returns INVALID_ARGUMENT when the width differs from
  /// the header width.
  Status AddRow(std::vector<std::string> row);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return header_.size(); }

  /// The cells of data row `i` (0-based), one per header column.
  std::span<const std::string> row(std::size_t i) const {
    return {cells_.data() + i * header_.size(), header_.size()};
  }

  /// Index of the named column, or NOT_FOUND.
  StatusOr<std::size_t> ColumnIndex(const std::string& name) const;

  /// Serializes the whole table (header first) to CSV text.
  std::string ToString() const;

  /// Writes the table to `path`; fails with UNAVAILABLE on IO errors.
  Status WriteFile(const std::string& path) const;

  /// Parses CSV text (first line is the header). Lines end in LF or CRLF
  /// (one trailing '\r' per line is dropped), a leading UTF-8 byte-order
  /// mark is skipped, and blank lines are ignored.
  static StatusOr<CsvTable> Parse(std::string_view text);

  /// Reads and parses the file at `path`.
  static StatusOr<CsvTable> ReadFile(const std::string& path);

 private:
  // Appends the comma-separated cells of `line` as one row.
  Status AddLine(std::string_view line);

  std::vector<std::string> header_;
  std::vector<std::string> cells_;  // num_rows_ x header_.size(), row-major.
  std::size_t num_rows_ = 0;
};

}  // namespace doppler

#endif  // DOPPLER_UTIL_CSV_H_
