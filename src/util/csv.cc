#include "util/csv.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>

#include "util/string_util.h"

namespace doppler {

namespace {

constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";

// Cuts the next line off the front of `text` and returns it without its
// '\n' and without one '\r' before that (CRLF files).
std::string_view NextLine(std::string_view* text) {
  const std::size_t newline = text->find('\n');
  std::string_view line = text->substr(0, newline);
  text->remove_prefix(newline == std::string_view::npos ? text->size()
                                                        : newline + 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

Status WidthError(std::size_t width, std::size_t header_width) {
  return InvalidArgumentError("row width " + std::to_string(width) +
                              " != header width " +
                              std::to_string(header_width));
}

}  // namespace

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

Status CsvTable::AddRow(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    return WidthError(row.size(), header_.size());
  }
  cells_.insert(cells_.end(), std::make_move_iterator(row.begin()),
                std::make_move_iterator(row.end()));
  ++num_rows_;
  return OkStatus();
}

Status CsvTable::AddLine(std::string_view line) {
  const std::size_t first = cells_.size();
  for (;;) {
    const std::size_t comma = line.find(',');
    cells_.emplace_back(line.substr(0, comma));
    if (comma == std::string_view::npos) break;
    line.remove_prefix(comma + 1);
  }
  const std::size_t width = cells_.size() - first;
  if (width != header_.size()) {
    cells_.resize(first);
    return WidthError(width, header_.size());
  }
  ++num_rows_;
  return OkStatus();
}

StatusOr<std::size_t> CsvTable::ColumnIndex(const std::string& name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  return NotFoundError("no column named '" + name + "'");
}

std::string CsvTable::ToString() const {
  std::string out = Join(header_, ",");
  out += '\n';
  for (std::size_t r = 0; r < num_rows_; ++r) {
    const std::span<const std::string> cells = row(r);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) out += ',';
      out += cells[c];
    }
    out += '\n';
  }
  return out;
}

Status CsvTable::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return UnavailableError("cannot open '" + path + "' for writing");
  out << ToString();
  if (!out) return UnavailableError("failed writing '" + path + "'");
  return OkStatus();
}

StatusOr<CsvTable> CsvTable::Parse(std::string_view text) {
  if (text.starts_with(kUtf8Bom)) text.remove_prefix(kUtf8Bom.size());
  if (text.empty()) return InvalidArgumentError("empty CSV document");
  CsvTable table(Split(NextLine(&text), ','));
  // One row per remaining line: exact for a well-formed file.
  const auto lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  table.cells_.reserve(lines * table.num_columns());
  while (!text.empty()) {
    const std::string_view line = NextLine(&text);
    if (line.empty()) continue;
    DOPPLER_RETURN_IF_ERROR(table.AddLine(line));
  }
  return table;
}

StatusOr<CsvTable> CsvTable::ReadFile(const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) return UnavailableError("cannot open '" + path + "'");
  // Sized from the file so a regular file arrives in one read; the loop
  // still drains a pipe, or a file that grew after the stat.
  std::size_t capacity = 4096;
  struct stat info {};
  if (fstat(fileno(file.get()), &info) == 0 && info.st_size > 0) {
    capacity = static_cast<std::size_t>(info.st_size) + 1;
  }
  std::string text(capacity, '\0');
  std::size_t size = 0;
  for (;;) {
    size += std::fread(text.data() + size, 1, text.size() - size, file.get());
    if (size < text.size()) break;  // End of file (or a read error).
    text.resize(text.size() * 2);
  }
  text.resize(size);
  return Parse(text);
}

}  // namespace doppler
