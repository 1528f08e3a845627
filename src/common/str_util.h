// Small string utilities shared across modules (CSV parsing, SQL rendering,
// TQL tokenizing, date handling, JSON output).

#ifndef VIZQUERY_COMMON_STR_UTIL_H_
#define VIZQUERY_COMMON_STR_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vizq {

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view s, char sep);

// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// Strict parsers: the whole trimmed input must be consumed.
std::optional<int64_t> ParseInt64(std::string_view s);
std::optional<double> ParseDouble(std::string_view s);
std::optional<bool> ParseBool(std::string_view s);

// Parses "YYYY-MM-DD" into days since 1970-01-01 (proleptic Gregorian).
std::optional<int64_t> ParseDateDays(std::string_view s);

// Formats days-since-epoch back to "YYYY-MM-DD".
std::string FormatDateDays(int64_t days);

// Day of week for days-since-epoch: 0 = Monday ... 6 = Sunday.
int DayOfWeek(int64_t days);

// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// ASCII lower-casing.
std::string ToLower(std::string_view s);

// Appends `s` to `out` as the body of a JSON string: quotes, backslashes
// and every control character are escaped.
void AppendJsonEscaped(std::string_view s, std::string* out);

}  // namespace vizq

#endif  // VIZQUERY_COMMON_STR_UTIL_H_
