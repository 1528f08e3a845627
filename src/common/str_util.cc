#include "src/common/str_util.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vizq {

std::vector<std::string> StrSplit(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::optional<int64_t> ParseInt64(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty() || s.size() > 20) return std::nullopt;
  char buf[24];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size() || end == buf) return std::nullopt;
  return static_cast<int64_t>(v);
}

std::optional<double> ParseDouble(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty() || s.size() > 40) return std::nullopt;
  char buf[44];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + s.size() || end == buf) return std::nullopt;
  return v;
}

std::optional<bool> ParseBool(std::string_view s) {
  s = StripWhitespace(s);
  if (EqualsIgnoreCase(s, "true") || s == "1") return true;
  if (EqualsIgnoreCase(s, "false") || s == "0") return false;
  return std::nullopt;
}

namespace {

bool IsLeap(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

// Days from 1970-01-01 to the first day of year y (may be negative).
int64_t DaysToYear(int y) {
  // Count days in [1970, y) or -(days in [y, 1970)).
  int64_t days = 0;
  if (y >= 1970) {
    for (int i = 1970; i < y; ++i) days += IsLeap(i) ? 366 : 365;
  } else {
    for (int i = y; i < 1970; ++i) days -= IsLeap(i) ? 366 : 365;
  }
  return days;
}

const int kMonthDays[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

int DaysInMonth(int y, int m) {
  if (m == 2 && IsLeap(y)) return 29;
  return kMonthDays[m - 1];
}

}  // namespace

std::optional<int64_t> ParseDateDays(std::string_view s) {
  s = StripWhitespace(s);
  if (s.size() != 10 || s[4] != '-' || s[7] != '-') return std::nullopt;
  auto year = ParseInt64(s.substr(0, 4));
  auto month = ParseInt64(s.substr(5, 2));
  auto day = ParseInt64(s.substr(8, 2));
  if (!year || !month || !day) return std::nullopt;
  int y = static_cast<int>(*year);
  int m = static_cast<int>(*month);
  int d = static_cast<int>(*day);
  if (y < 1600 || y > 3000 || m < 1 || m > 12 || d < 1 ||
      d > DaysInMonth(y, m)) {
    return std::nullopt;
  }
  int64_t days = DaysToYear(y);
  for (int i = 1; i < m; ++i) days += DaysInMonth(y, i);
  days += d - 1;
  return days;
}

std::string FormatDateDays(int64_t days) {
  int y = 1970;
  // Walk years; dates in this codebase span decades, not megayears.
  while (true) {
    int len = IsLeap(y) ? 366 : 365;
    if (days >= len) {
      days -= len;
      ++y;
    } else if (days < 0) {
      --y;
      days += IsLeap(y) ? 366 : 365;
    } else {
      break;
    }
  }
  int m = 1;
  while (days >= DaysInMonth(y, m)) {
    days -= DaysInMonth(y, m);
    ++m;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m,
                static_cast<int>(days + 1));
  return buf;
}

int DayOfWeek(int64_t days) {
  // 1970-01-01 was a Thursday (index 3 with Monday = 0).
  int64_t dow = (days + 3) % 7;
  if (dow < 0) dow += 7;
  return static_cast<int>(dow);
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& ch : out) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  return out;
}

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace vizq
