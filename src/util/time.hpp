// failmine/util/time.hpp
//
// Minimal civil-time layer used by every log library.
//
// All log records carry timestamps as `UnixSeconds` (seconds since the Unix
// epoch, UTC). The helpers here convert to and from the human-readable
// format used in the simulated logs ("YYYY-MM-DD hh:mm:ss") and expose the
// calendar decompositions the temporal analyses need (hour of day, day of
// week, month index). The civil<->absolute conversion uses the classic
// days-from-civil algorithm so the library has no dependency on the system
// timezone database.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace failmine::util {

/// Seconds since 1970-01-01T00:00:00 UTC. Signed so intervals are natural.
using UnixSeconds = std::int64_t;

constexpr std::int64_t kSecondsPerMinute = 60;
constexpr std::int64_t kSecondsPerHour = 3600;
constexpr std::int64_t kSecondsPerDay = 86400;

/// A broken-down UTC calendar time.
struct CivilTime {
  int year = 1970;
  int month = 1;   ///< 1..12
  int day = 1;     ///< 1..31
  int hour = 0;    ///< 0..23
  int minute = 0;  ///< 0..59
  int second = 0;  ///< 0..59

  friend bool operator==(const CivilTime&, const CivilTime&) = default;
};

/// Days since the epoch for a civil date (Hinnant's days_from_civil).
std::int64_t days_from_civil(int year, int month, int day);

/// Inverse of days_from_civil.
void civil_from_days(std::int64_t days, int& year, int& month, int& day);

/// Converts a broken-down UTC time to seconds since the epoch.
UnixSeconds to_unix(const CivilTime& ct);

/// Converts seconds since the epoch to broken-down UTC time.
CivilTime to_civil(UnixSeconds t);

/// Parses "YYYY-MM-DD hh:mm:ss" (also accepts 'T' as the separator).
/// Throws ParseError on malformed input.
UnixSeconds parse_timestamp(std::string_view text);

/// Most bytes append_timestamp writes: an int year of up to 11 characters
/// and "-MM-DD hh:mm:ss".
inline constexpr std::size_t kMaxTimestampChars = 26;

/// Writes `t` as "YYYY-MM-DD hh:mm:ss" at `out`, which has room for
/// kMaxTimestampChars bytes, and returns the end. A year outside
/// 0000-9999 is spelled as printf's "%04d" spells it.
char* append_timestamp(char* out, UnixSeconds t);

/// Formats as "YYYY-MM-DD hh:mm:ss" (append_timestamp into a string).
std::string format_timestamp(UnixSeconds t);

/// Hour of day in [0,24).
int hour_of_day(UnixSeconds t);

/// Day of week, 0 = Monday .. 6 = Sunday.
int day_of_week(UnixSeconds t);

/// Zero-based month index counted from `origin` (used for monthly series).
int month_index(UnixSeconds origin, UnixSeconds t);

/// True if `year` is a Gregorian leap year.
bool is_leap_year(int year);

/// Number of days in `month` of `year`.
int days_in_month(int year, int month);

}  // namespace failmine::util
