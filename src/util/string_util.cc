#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace doppler {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      fields.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string result;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result.append(separator);
    result.append(parts[i]);
  }
  return result;
}

std::string_view Trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool ParseDouble(std::string_view text, double* value) {
  const char* const first = text.data();
  const char* const last = first + text.size();
  double parsed = 0.0;
  const std::from_chars_result fast = std::from_chars(first, last, parsed);
  if (fast.ec == std::errc() && fast.ptr == last && std::isfinite(parsed)) {
    *value = parsed;
    return true;
  }
  // strtod needs a terminated copy; like strtod itself, the check for
  // trailing garbage stops at an embedded NUL.
  const std::string copy(text);
  char* end = nullptr;
  parsed = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || !Trim(end).empty()) return false;
  *value = parsed;
  return true;
}

std::string FormatDouble(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string FormatPercent(double fraction, int decimals) {
  return FormatDouble(fraction * 100.0, decimals) + "%";
}

std::string FormatDollars(double amount, int decimals) {
  std::string digits = FormatDouble(std::fabs(amount), decimals);
  // Insert thousands separators into the integer part.
  std::size_t dot = digits.find('.');
  std::size_t integer_end = dot == std::string::npos ? digits.size() : dot;
  std::string with_commas;
  for (std::size_t i = 0; i < integer_end; ++i) {
    if (i > 0 && (integer_end - i) % 3 == 0) with_commas.push_back(',');
    with_commas.push_back(digits[i]);
  }
  with_commas.append(digits.substr(integer_end));
  std::string result = amount < 0 ? "-$" : "$";
  result += with_commas;
  return result;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

}  // namespace doppler
