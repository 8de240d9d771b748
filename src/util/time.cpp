#include "util/time.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "util/error.hpp"

namespace failmine::util {

std::int64_t days_from_civil(int y, int m, int d) {
  // Howard Hinnant's algorithm, valid for the proleptic Gregorian calendar.
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void civil_from_days(std::int64_t z, int& year, int& month, int& day) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);            // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);           // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                                // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                        // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                             // [1, 12]
  year = static_cast<int>(y + (m <= 2));
  month = static_cast<int>(m);
  day = static_cast<int>(d);
}

UnixSeconds to_unix(const CivilTime& ct) {
  if (ct.month < 1 || ct.month > 12) throw DomainError("month out of range");
  if (ct.day < 1 || ct.day > days_in_month(ct.year, ct.month))
    throw DomainError("day out of range");
  if (ct.hour < 0 || ct.hour > 23 || ct.minute < 0 || ct.minute > 59 ||
      ct.second < 0 || ct.second > 59)
    throw DomainError("time of day out of range");
  return days_from_civil(ct.year, ct.month, ct.day) * kSecondsPerDay +
         ct.hour * kSecondsPerHour + ct.minute * kSecondsPerMinute + ct.second;
}

CivilTime to_civil(UnixSeconds t) {
  std::int64_t days = t / kSecondsPerDay;
  std::int64_t rem = t % kSecondsPerDay;
  if (rem < 0) {
    rem += kSecondsPerDay;
    --days;
  }
  CivilTime ct;
  civil_from_days(days, ct.year, ct.month, ct.day);
  ct.hour = static_cast<int>(rem / kSecondsPerHour);
  ct.minute = static_cast<int>((rem % kSecondsPerHour) / kSecondsPerMinute);
  ct.second = static_cast<int>(rem % kSecondsPerMinute);
  return ct;
}

namespace {

int parse_fixed_int(std::string_view s, std::size_t pos, std::size_t len) {
  int value = 0;
  if (pos + len > s.size()) throw ParseError("timestamp too short: '" + std::string(s) + "'");
  for (std::size_t i = pos; i < pos + len; ++i) {
    const char c = s[i];
    if (c < '0' || c > '9')
      throw ParseError("non-digit in timestamp: '" + std::string(s) + "'");
    value = value * 10 + (c - '0');
  }
  return value;
}

/// Writes the two decimal digits of v in [0, 99].
char* put2(char* out, int v) {
  out[0] = static_cast<char>('0' + v / 10);
  out[1] = static_cast<char>('0' + v % 10);
  return out + 2;
}

}  // namespace

UnixSeconds parse_timestamp(std::string_view text) {
  // Expected layout: YYYY-MM-DD hh:mm:ss (19 chars); 'T' separator accepted.
  if (text.size() != 19) throw ParseError("timestamp must be 19 chars: '" + std::string(text) + "'");
  if (text[4] != '-' || text[7] != '-' || (text[10] != ' ' && text[10] != 'T') ||
      text[13] != ':' || text[16] != ':')
    throw ParseError("bad timestamp separators: '" + std::string(text) + "'");
  CivilTime ct;
  ct.year = parse_fixed_int(text, 0, 4);
  ct.month = parse_fixed_int(text, 5, 2);
  ct.day = parse_fixed_int(text, 8, 2);
  ct.hour = parse_fixed_int(text, 11, 2);
  ct.minute = parse_fixed_int(text, 14, 2);
  ct.second = parse_fixed_int(text, 17, 2);
  try {
    return to_unix(ct);
  } catch (const DomainError& e) {
    throw ParseError(std::string(e.what()) + " in '" + std::string(text) + "'");
  }
}

char* append_timestamp(char* out, UnixSeconds t) {
  const CivilTime ct = to_civil(t);
  if (ct.year < 0 || ct.year > 9999) {
    std::array<char, kMaxTimestampChars + 1> buf{};
    const int n = std::snprintf(buf.data(), buf.size(),
                                "%04d-%02d-%02d %02d:%02d:%02d", ct.year,
                                ct.month, ct.day, ct.hour, ct.minute,
                                ct.second);
    const auto len = std::min(static_cast<std::size_t>(n), kMaxTimestampChars);
    std::memcpy(out, buf.data(), len);
    return out + len;
  }
  out = put2(out, ct.year / 100);
  out = put2(out, ct.year % 100);
  *out++ = '-';
  out = put2(out, ct.month);
  *out++ = '-';
  out = put2(out, ct.day);
  *out++ = ' ';
  out = put2(out, ct.hour);
  *out++ = ':';
  out = put2(out, ct.minute);
  *out++ = ':';
  return put2(out, ct.second);
}

std::string format_timestamp(UnixSeconds t) {
  char buf[kMaxTimestampChars];
  return std::string(buf, append_timestamp(buf, t));
}

int hour_of_day(UnixSeconds t) {
  std::int64_t rem = t % kSecondsPerDay;
  if (rem < 0) rem += kSecondsPerDay;
  return static_cast<int>(rem / kSecondsPerHour);
}

int day_of_week(UnixSeconds t) {
  std::int64_t days = t / kSecondsPerDay;
  if (t % kSecondsPerDay < 0) --days;
  // 1970-01-01 was a Thursday (index 3 with Monday = 0).
  std::int64_t dow = (days + 3) % 7;
  if (dow < 0) dow += 7;
  return static_cast<int>(dow);
}

int month_index(UnixSeconds origin, UnixSeconds t) {
  const CivilTime a = to_civil(origin);
  const CivilTime b = to_civil(t);
  return (b.year - a.year) * 12 + (b.month - a.month);
}

bool is_leap_year(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int days_in_month(int year, int month) {
  static constexpr std::array<int, 13> kDays = {0, 31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) throw DomainError("month out of range");
  if (month == 2 && is_leap_year(year)) return 29;
  return kDays[static_cast<std::size_t>(month)];
}

}  // namespace failmine::util
