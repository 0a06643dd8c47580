#ifndef DOPPLER_UTIL_STRING_UTIL_H_
#define DOPPLER_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace doppler {

/// Splits `text` on `delimiter`, keeping empty fields. Splitting an empty
/// string yields a single empty field (CSV semantics).
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Parses `text` as one double with `strtod`'s grammar: the whole cell
/// must be consumed, apart from surrounding whitespace. On success stores
/// the value (which may be NaN or +-Inf; finiteness is the caller's
/// policy) and returns true; otherwise leaves `*value` alone and returns
/// false. Plain decimal cells take a `std::from_chars` fast path, which is
/// bit-identical to `strtod` on every finite result; anything else
/// (whitespace, '+', hex, nan/inf, out-of-range) goes through `strtod`.
bool ParseDouble(std::string_view text, double* value);

/// printf-style double formatting with a fixed number of decimals.
std::string FormatDouble(double value, int decimals);

/// Formats a fraction in [0,1] as a percentage string, e.g. "89.4%".
std::string FormatPercent(double fraction, int decimals = 1);

/// Formats a dollar amount, e.g. "$1.36" or "$1,036.50".
std::string FormatDollars(double amount, int decimals = 2);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

}  // namespace doppler

#endif  // DOPPLER_UTIL_STRING_UTIL_H_
